// Package flash models the NAND flash array inside the drive: a geometry of
// channels, dies, and planes with page-granular read/program timing, an FTL
// that stripes logical pages across the array for parallelism, and a
// latency model that accounts for die-level overlap and channel bus
// serialization — the substrate the DSCS-Drive's P2P path reads from.
//
// The FTL's allocation has a closed form (the g-th page ever programmed
// goes to die g mod D), so the map is a list of extents, and every Read
// and Write costs O(extents touched × dies) regardless of its size.
package flash

import (
	"fmt"
	"slices"
	"time"

	"dscs/internal/units"
)

// Geometry describes the physical organization of the array.
type Geometry struct {
	Channels       int
	DiesPerChannel int
	PlanesPerDie   int
	PageSize       units.Bytes
	PagesPerBlock  int
	BlocksPerPlane int

	ReadLatency    time.Duration // tR: array -> page register
	ProgramLatency time.Duration // tPROG
	EraseLatency   time.Duration // tBERS
	ChannelBW      units.Bandwidth

	// Energy per byte moved through the array (sense + transfer).
	ReadEnergyPerByte  units.Energy
	WriteEnergyPerByte units.Energy
}

// SmartSSDClass returns a geometry in the class of a 4 TB datacenter TLC
// drive: 8 channels x 4 dies, 16 KiB pages, 1.2 GB/s ONFI channels.
func SmartSSDClass() Geometry {
	return Geometry{
		Channels:       8,
		DiesPerChannel: 4,
		PlanesPerDie:   2,
		PageSize:       16 * units.KiB,
		PagesPerBlock:  1024,
		BlocksPerPlane: 4096,

		ReadLatency:    60 * time.Microsecond,
		ProgramLatency: 700 * time.Microsecond,
		EraseLatency:   3 * time.Millisecond,
		ChannelBW:      1.2 * units.GBps,

		ReadEnergyPerByte:  50 * units.PicoJoule,
		WriteEnergyPerByte: 350 * units.PicoJoule,
	}
}

// Validate rejects degenerate geometries.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.DiesPerChannel <= 0 || g.PlanesPerDie <= 0 {
		return fmt.Errorf("flash: non-positive parallelism dims")
	}
	if g.PageSize <= 0 || g.PagesPerBlock <= 0 || g.BlocksPerPlane <= 0 {
		return fmt.Errorf("flash: non-positive capacity dims")
	}
	if g.ReadLatency <= 0 || g.ProgramLatency <= 0 || g.ChannelBW <= 0 {
		return fmt.Errorf("flash: non-positive timing")
	}
	return nil
}

// Capacity returns the raw array capacity.
func (g Geometry) Capacity() units.Bytes {
	return g.PageSize * units.Bytes(g.PagesPerBlock) * units.Bytes(g.BlocksPerPlane) *
		units.Bytes(g.PlanesPerDie) * units.Bytes(g.DiesPerChannel) * units.Bytes(g.Channels)
}

func (g Geometry) totalDies() int { return g.Channels * g.DiesPerChannel }

// pageXfer is the channel-bus time for one page.
func (g Geometry) pageXfer() time.Duration {
	return g.ChannelBW.TransferTime(g.PageSize)
}

// PPA is a physical page address.
type PPA struct {
	Channel, Die, Plane, Block, Page int
}

// extent records that logical pages [lpn, lpn+n) were programmed as the
// consecutive global program sequence numbers [seq, seq+n).
type extent struct {
	lpn, n, seq int64
}

func (e extent) end() int64 { return e.lpn + e.n }

// Array is the flash array with its FTL state. Not safe for concurrent use;
// the drive serializes access as real controllers do per queue pair.
//
// The FTL allocates append-only on the least-written die, lowest index
// first (dynamic wear leveling; steady-state GC cost is folded into
// ProgramLatency). From an empty array that rule is a closed form: the g-th
// page ever programmed lands on die g mod D at per-die sequence g / D, for
// D dies. So the mapping is kept as extents instead of per-page entries: a
// sorted, non-overlapping list of logical runs, each programmed as one run
// of global sequence numbers. A write trims or splits the extents it
// overlaps and inserts one new extent; a read counts per-die residues of
// each extent it overlaps. Both cost O(extents touched × dies), not
// O(pages).
type Array struct {
	geo Geometry

	// extents is the logical-to-physical map, sorted by lpn.
	extents []extent
	// programmed is the global program sequence: pages ever written.
	programmed int64
	// mapped counts live logical pages.
	mapped int64
	// invalidated counts pages made stale by overwrites.
	invalidated int64

	// Read's per-die and per-channel page counts, reused across calls.
	perDie, perChannel []int64
}

// NewArray returns an array with an empty FTL.
func NewArray(geo Geometry) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	return &Array{
		geo:        geo,
		perDie:     make([]int64, geo.totalDies()),
		perChannel: make([]int64, geo.Channels),
	}, nil
}

// Geometry returns the array's geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// pagesFor returns the page count spanning n bytes.
func (a *Array) pagesFor(n units.Bytes) int64 {
	if n <= 0 {
		return 0
	}
	return int64((n + a.geo.PageSize - 1) / a.geo.PageSize)
}

// firstEnding returns the index of the first extent that ends after lpn.
func (a *Array) firstEnding(lpn int64) int {
	i, _ := slices.BinarySearchFunc(a.extents, lpn, func(e extent, lpn int64) int {
		if e.end() <= lpn {
			return -1
		}
		return 1
	})
	return i
}

// ppaOf places global program sequence number g: die g mod D, and within
// the die its sequence g / D striped over planes, blocks and pages.
func (a *Array) ppaOf(g int64) PPA {
	dies := int64(a.geo.totalDies())
	die := int(g % dies)
	seq := g / dies
	pagesPerPlane := int64(a.geo.PagesPerBlock) * int64(a.geo.BlocksPerPlane)
	plane := int(seq/int64(a.geo.PagesPerBlock)) % a.geo.PlanesPerDie
	within := seq % (pagesPerPlane * int64(a.geo.PlanesPerDie))
	block := int(within/int64(a.geo.PagesPerBlock)) % a.geo.BlocksPerPlane
	page := int(seq % int64(a.geo.PagesPerBlock))
	return PPA{
		Channel: die / a.geo.DiesPerChannel,
		Die:     die % a.geo.DiesPerChannel,
		Plane:   plane,
		Block:   block,
		Page:    page,
	}
}

// lookup returns the physical page a logical page is mapped to.
func (a *Array) lookup(lpn int64) (PPA, bool) {
	i := a.firstEnding(lpn)
	if i == len(a.extents) || a.extents[i].lpn > lpn {
		return PPA{}, false
	}
	e := a.extents[i]
	return a.ppaOf(e.seq + lpn - e.lpn), true
}

// Write programs the logical pages backing [lpnStart, lpnStart+pages) and
// returns the operation latency. Overwrites remap and invalidate.
func (a *Array) Write(lpnStart, pages int64) (time.Duration, units.Energy) {
	if pages <= 0 {
		return 0, 0
	}
	end := lpnStart + pages
	i := a.firstEnding(lpnStart)
	j := i
	for ; j < len(a.extents) && a.extents[j].lpn < end; j++ {
		e := a.extents[j]
		stale := min(e.end(), end) - max(e.lpn, lpnStart)
		a.invalidated += stale
		a.mapped -= stale
	}

	// The overlapped run [i, j) becomes: the untouched head of extents[i],
	// the new extent, the untouched tail of extents[j-1].
	var repl [3]extent
	m := 0
	if i < j && a.extents[i].lpn < lpnStart {
		e := a.extents[i]
		repl[m] = extent{lpn: e.lpn, n: lpnStart - e.lpn, seq: e.seq}
		m++
	}
	if m == 0 && i > 0 && a.extents[i-1].end() == lpnStart &&
		a.extents[i-1].seq+a.extents[i-1].n == a.programmed {
		// Sequential continuation of the last write: grow it in place.
		a.extents[i-1].n += pages
	} else {
		repl[m] = extent{lpn: lpnStart, n: pages, seq: a.programmed}
		m++
	}
	if i < j && a.extents[j-1].end() > end {
		e := a.extents[j-1]
		repl[m] = extent{lpn: end, n: e.end() - end, seq: e.seq + end - e.lpn}
		m++
	}
	a.extents = slices.Replace(a.extents, i, j, repl[:m]...)
	a.programmed += pages
	a.mapped += pages

	// Consecutive sequence numbers round-robin the dies, so the deepest
	// die queue holds ceil(pages/D) programs.
	dies := int64(a.geo.totalDies())
	lat := time.Duration((pages+dies-1)/dies) * a.geo.ProgramLatency
	energy := units.Energy(float64(pages)*float64(a.geo.PageSize)) * a.geo.WriteEnergyPerByte
	return lat, energy
}

// WriteBytes programs n bytes at a logical byte offset.
func (a *Array) WriteBytes(offset int64, n units.Bytes) (time.Duration, units.Energy) {
	start := offset / int64(a.geo.PageSize)
	return a.Write(start, a.pagesFor(n))
}

// Read returns the latency of reading the logical pages
// [lpnStart, lpnStart+pages). Unmapped pages read as zero-fill from the
// controller without touching the array.
func (a *Array) Read(lpnStart, pages int64) (time.Duration, units.Energy) {
	if pages <= 0 {
		return 0, 0
	}
	clear(a.perDie)
	clear(a.perChannel)
	end := lpnStart + pages
	dies := int64(len(a.perDie))
	var mapped int64
	for i := a.firstEnding(lpnStart); i < len(a.extents) && a.extents[i].lpn < end; i++ {
		e := a.extents[i]
		lo := max(e.lpn, lpnStart)
		n := min(e.end(), end) - lo
		mapped += n
		// Sequence numbers [s, s+n) cover every die n/D times and the
		// n mod D dies starting at s mod D once more.
		if full := n / dies; full > 0 {
			for d := range a.perDie {
				a.perDie[d] += full
			}
		}
		d := int((e.seq + lo - e.lpn) % dies)
		for k := n % dies; k > 0; k-- {
			a.perDie[d]++
			if d++; d == len(a.perDie) {
				d = 0
			}
		}
	}
	if mapped == 0 {
		// Zero-fill read: controller-only, a page transfer worth of work.
		return a.geo.pageXfer(), 0
	}
	for d, q := range a.perDie {
		a.perChannel[d/a.geo.DiesPerChannel] += q
	}
	lat := a.readLatency(a.perChannel, a.perDie)
	energy := units.Energy(float64(mapped)*float64(a.geo.PageSize)) * a.geo.ReadEnergyPerByte
	return lat, energy
}

// ReadBytes reads n bytes at a logical byte offset.
func (a *Array) ReadBytes(offset int64, n units.Bytes) (time.Duration, units.Energy) {
	start := offset / int64(a.geo.PageSize)
	return a.Read(start, a.pagesFor(n))
}

// readLatency composes die-level sensing with channel bus serialization:
// per channel, dies sense pages in parallel waves of tR while the shared
// bus streams finished pages; the channel finishes at
// max(sense pipeline, bus serialization) + the first page's sense.
func (a *Array) readLatency(perChannel, perDie []int64) time.Duration {
	var worst time.Duration
	for ch := 0; ch < a.geo.Channels; ch++ {
		pages := perChannel[ch]
		if pages == 0 {
			continue
		}
		// Deepest die queue on this channel bounds the sensing pipeline.
		var deepest int64
		for _, q := range perDie[ch*a.geo.DiesPerChannel : (ch+1)*a.geo.DiesPerChannel] {
			if q > deepest {
				deepest = q
			}
		}
		sense := time.Duration(deepest) * a.geo.ReadLatency
		bus := time.Duration(pages) * a.geo.pageXfer()
		total := a.geo.ReadLatency + max(sense-a.geo.ReadLatency, bus)
		if total > worst {
			worst = total
		}
	}
	return worst
}

// MappedPages reports how many logical pages are live.
func (a *Array) MappedPages() int64 { return a.mapped }

// InvalidatedPages reports pages made stale by overwrites.
func (a *Array) InvalidatedPages() int64 { return a.invalidated }

// WearSpread returns max/min die program counts (1.0 is perfectly even);
// returns 1 when nothing has been written. Round-robin allocation leaves
// every die at floor or ceil of programmed/D.
func (a *Array) WearSpread() float64 {
	dies := int64(a.geo.totalDies())
	minW, maxW := a.programmed/dies, (a.programmed+dies-1)/dies
	if maxW == 0 {
		return 1
	}
	if minW == 0 {
		minW = 1
	}
	return float64(maxW) / float64(minW)
}

// SustainedReadBW reports the array's streaming read bandwidth given full
// parallelism: per channel the min of die sensing rate and bus rate.
func (g Geometry) SustainedReadBW() units.Bandwidth {
	perDie := float64(g.PageSize) / g.ReadLatency.Seconds()
	senseRate := perDie * float64(g.DiesPerChannel)
	busRate := float64(g.ChannelBW)
	per := senseRate
	if busRate < per {
		per = busRate
	}
	return units.Bandwidth(per * float64(g.Channels))
}
