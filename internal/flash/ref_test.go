package flash

import (
	"time"

	"dscs/internal/units"
)

// refArray is the per-page FTL the extent map must reproduce: one map
// entry per logical page and an argmin scan over the dies for every page
// programmed. It is the reference for TestFTLMatchesReference and
// FuzzFTLOps.
type refArray struct {
	geo Geometry

	l2p         map[int64]PPA
	cursor      []int64
	invalidated int64
	programs    []int64
}

func newRefArray(geo Geometry) *refArray {
	return &refArray{
		geo:      geo,
		l2p:      make(map[int64]PPA),
		cursor:   make([]int64, geo.totalDies()),
		programs: make([]int64, geo.totalDies()),
	}
}

func (a *refArray) dieIndex(channel, die int) int {
	return channel*a.geo.DiesPerChannel + die
}

// allocate assigns the next physical page on the least-written die,
// lowest index first.
func (a *refArray) allocate() (PPA, int) {
	best := 0
	for i := 1; i < len(a.cursor); i++ {
		if a.cursor[i] < a.cursor[best] {
			best = i
		}
	}
	seq := a.cursor[best]
	a.cursor[best]++
	a.programs[best]++
	pagesPerPlane := int64(a.geo.PagesPerBlock) * int64(a.geo.BlocksPerPlane)
	plane := int(seq/int64(a.geo.PagesPerBlock)) % a.geo.PlanesPerDie
	within := seq % (pagesPerPlane * int64(a.geo.PlanesPerDie))
	block := int(within/int64(a.geo.PagesPerBlock)) % a.geo.BlocksPerPlane
	page := int(seq % int64(a.geo.PagesPerBlock))
	return PPA{
		Channel: best / a.geo.DiesPerChannel,
		Die:     best % a.geo.DiesPerChannel,
		Plane:   plane,
		Block:   block,
		Page:    page,
	}, best
}

func (a *refArray) Write(lpnStart, pages int64) (time.Duration, units.Energy) {
	if pages <= 0 {
		return 0, 0
	}
	perDie := make([]int64, a.geo.totalDies())
	for i := int64(0); i < pages; i++ {
		lpn := lpnStart + i
		if _, ok := a.l2p[lpn]; ok {
			a.invalidated++
		}
		ppa, die := a.allocate()
		a.l2p[lpn] = ppa
		perDie[die]++
	}
	var deepest int64
	for _, q := range perDie {
		deepest = max(deepest, q)
	}
	lat := time.Duration(deepest) * a.geo.ProgramLatency
	energy := units.Energy(float64(pages)*float64(a.geo.PageSize)) * a.geo.WriteEnergyPerByte
	return lat, energy
}

func (a *refArray) Read(lpnStart, pages int64) (time.Duration, units.Energy) {
	if pages <= 0 {
		return 0, 0
	}
	perChannel := make([]int64, a.geo.Channels)
	perDie := make([]int64, a.geo.totalDies())
	var mapped int64
	for i := int64(0); i < pages; i++ {
		ppa, ok := a.l2p[lpnStart+i]
		if !ok {
			continue
		}
		mapped++
		perChannel[ppa.Channel]++
		perDie[a.dieIndex(ppa.Channel, ppa.Die)]++
	}
	if mapped == 0 {
		return a.geo.pageXfer(), 0
	}
	var worst time.Duration
	for ch := 0; ch < a.geo.Channels; ch++ {
		pages := perChannel[ch]
		if pages == 0 {
			continue
		}
		var deepest int64
		for d := 0; d < a.geo.DiesPerChannel; d++ {
			deepest = max(deepest, perDie[a.dieIndex(ch, d)])
		}
		sense := time.Duration(deepest) * a.geo.ReadLatency
		bus := time.Duration(pages) * a.geo.pageXfer()
		worst = max(worst, a.geo.ReadLatency+max(sense-a.geo.ReadLatency, bus))
	}
	energy := units.Energy(float64(mapped)*float64(a.geo.PageSize)) * a.geo.ReadEnergyPerByte
	return worst, energy
}

func (a *refArray) MappedPages() int64 { return int64(len(a.l2p)) }

func (a *refArray) InvalidatedPages() int64 { return a.invalidated }

func (a *refArray) WearSpread() float64 {
	minW, maxW := int64(-1), int64(0)
	for _, w := range a.programs {
		if minW < 0 || w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	if maxW == 0 {
		return 1
	}
	if minW == 0 {
		minW = 1
	}
	return float64(maxW) / float64(minW)
}
