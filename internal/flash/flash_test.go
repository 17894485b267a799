package flash

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dscs/internal/units"
)

func newArray(t *testing.T) *Array {
	t.Helper()
	a, err := NewArray(SmartSSDClass())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGeometryCapacity(t *testing.T) {
	g := SmartSSDClass()
	// 8ch x 4 dies x 2 planes x 1024 blocks x 256 pages x 16KiB = 4 TiB raw.
	if c := g.Capacity(); c != 4*units.Bytes(1<<40) {
		t.Errorf("capacity = %v, want 4TiB", c)
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := SmartSSDClass().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := SmartSSDClass()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero channels should fail")
	}
	bad2 := SmartSSDClass()
	bad2.ReadLatency = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero tR should fail")
	}
}

func TestSustainedReadBW(t *testing.T) {
	// 8 channels, bus-limited at 1.2 GB/s or sense-limited at
	// 4 x 16KiB/60us = 1.09 GB/s per channel -> ~8.7 GB/s array-wide.
	bw := SmartSSDClass().SustainedReadBW()
	if bw < 7*units.GBps || bw > 10*units.GBps {
		t.Errorf("sustained read bw = %v, want 7-10GB/s", bw)
	}
}

func TestWriteThenReadMapped(t *testing.T) {
	a := newArray(t)
	lat, energy := a.WriteBytes(0, 4*units.MiB)
	if lat <= 0 || energy <= 0 {
		t.Fatalf("write lat=%v energy=%v", lat, energy)
	}
	if a.MappedPages() != 256 {
		t.Fatalf("mapped pages = %d, want 256", a.MappedPages())
	}
	rlat, renergy := a.ReadBytes(0, 4*units.MiB)
	if rlat <= 0 || renergy <= 0 {
		t.Fatalf("read lat=%v energy=%v", rlat, renergy)
	}
	// Reads are far faster than programs.
	if rlat >= lat {
		t.Errorf("read %v should beat program %v", rlat, lat)
	}
}

func TestUnmappedReadIsZeroFill(t *testing.T) {
	a := newArray(t)
	lat, energy := a.ReadBytes(1<<30, 64*units.KiB)
	if energy != 0 {
		t.Error("zero-fill read must not touch the array")
	}
	if lat <= 0 || lat > 100*time.Microsecond {
		t.Errorf("zero-fill latency = %v", lat)
	}
}

func TestParallelismSpeedsReads(t *testing.T) {
	// A multi-page read striped across channels must be much faster than
	// pages x tR serialized.
	a := newArray(t)
	const size = 8 * units.MiB // 512 pages
	a.WriteBytes(0, size)
	lat, _ := a.ReadBytes(0, size)
	serial := time.Duration(512) * SmartSSDClass().ReadLatency
	if lat >= serial/4 {
		t.Errorf("striped read %v should be >4x faster than serial %v", lat, serial)
	}
	// And no faster than the array's sustained bandwidth allows.
	floor := SmartSSDClass().SustainedReadBW().TransferTime(size)
	if lat < floor/2 {
		t.Errorf("read %v implausibly beats bandwidth floor %v", lat, floor)
	}
}

func TestOverwriteInvalidates(t *testing.T) {
	a := newArray(t)
	a.WriteBytes(0, 1*units.MiB)
	if a.InvalidatedPages() != 0 {
		t.Fatal("fresh writes must not invalidate")
	}
	a.WriteBytes(0, 1*units.MiB)
	if a.InvalidatedPages() != 64 {
		t.Errorf("invalidated = %d, want 64", a.InvalidatedPages())
	}
	// Remap means still exactly 64 live pages.
	if a.MappedPages() != 64 {
		t.Errorf("mapped = %d, want 64", a.MappedPages())
	}
}

func TestWearLeveling(t *testing.T) {
	a := newArray(t)
	for i := 0; i < 64; i++ {
		a.WriteBytes(int64(i)*int64(units.MiB), 1*units.MiB)
	}
	if spread := a.WearSpread(); spread > 1.5 {
		t.Errorf("wear spread = %.2f, want near 1.0", spread)
	}
}

func TestReadLatencyGrowsWithSize(t *testing.T) {
	a := newArray(t)
	a.WriteBytes(0, 64*units.MiB)
	small, _ := a.ReadBytes(0, 64*units.KiB)
	big, _ := a.ReadBytes(0, 64*units.MiB)
	if big <= small {
		t.Errorf("64MiB read %v should exceed 64KiB read %v", big, small)
	}
}

func TestZeroSizedOps(t *testing.T) {
	a := newArray(t)
	if lat, e := a.ReadBytes(0, 0); lat != 0 || e != 0 {
		t.Error("zero read should be free")
	}
	if lat, e := a.WriteBytes(0, 0); lat != 0 || e != 0 {
		t.Error("zero write should be free")
	}
}

func TestMappingUniquenessProperty(t *testing.T) {
	// Distinct logical pages must map to distinct physical pages.
	a := newArray(t)
	a.Write(0, 2000)
	seen := make(map[PPA]bool)
	for lpn := int64(0); lpn < 2000; lpn++ {
		ppa, ok := a.lookup(lpn)
		if !ok {
			t.Fatalf("lpn %d unmapped", lpn)
		}
		if seen[ppa] {
			t.Fatalf("ppa %+v assigned twice", ppa)
		}
		seen[ppa] = true
		if ppa.Channel < 0 || ppa.Channel >= a.geo.Channels ||
			ppa.Die < 0 || ppa.Die >= a.geo.DiesPerChannel ||
			ppa.Plane < 0 || ppa.Plane >= a.geo.PlanesPerDie {
			t.Fatalf("ppa out of geometry: %+v", ppa)
		}
	}
}

func TestPagesForProperty(t *testing.T) {
	a := newArray(t)
	f := func(n uint32) bool {
		b := units.Bytes(n)
		pages := a.pagesFor(b)
		ps := int64(a.geo.PageSize)
		return pages*ps >= int64(b) && (pages-1)*ps < int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// smallGeometry is a 3-channel × 5-die array with tiny blocks, so the
// die count is odd and per-die sequences wrap planes and blocks quickly.
func smallGeometry() Geometry {
	g := SmartSSDClass()
	g.Channels, g.DiesPerChannel = 3, 5
	g.PagesPerBlock, g.BlocksPerPlane = 4, 3
	return g
}

type ftlOp struct {
	write      bool
	lpn, pages int64
}

// checkFTL replays ops on the extent-mapped Array and on the per-page
// reference, and reports the first difference: an op's latency or energy,
// a broken extent invariant, a counter, or the physical page of any
// logical page up to span.
func checkFTL(geo Geometry, ops []ftlOp, span int64) error {
	a, err := NewArray(geo)
	if err != nil {
		return err
	}
	ref := newRefArray(geo)
	for k, op := range ops {
		var lat, refLat time.Duration
		var energy, refEnergy units.Energy
		if op.write {
			lat, energy = a.Write(op.lpn, op.pages)
			refLat, refEnergy = ref.Write(op.lpn, op.pages)
		} else {
			lat, energy = a.Read(op.lpn, op.pages)
			refLat, refEnergy = ref.Read(op.lpn, op.pages)
		}
		if lat != refLat || energy != refEnergy {
			return fmt.Errorf("op %d %+v: got (%v, %v), reference (%v, %v)", k, op, lat, energy, refLat, refEnergy)
		}
		for i, e := range a.extents {
			if e.n <= 0 || (i > 0 && a.extents[i-1].end() > e.lpn) {
				return fmt.Errorf("op %d %+v: extents not sorted and disjoint: %+v", k, op, a.extents)
			}
		}
	}
	if a.MappedPages() != ref.MappedPages() || a.InvalidatedPages() != ref.InvalidatedPages() ||
		a.WearSpread() != ref.WearSpread() {
		return fmt.Errorf("counters mapped/invalidated/wear = %d/%d/%v, reference %d/%d/%v",
			a.MappedPages(), a.InvalidatedPages(), a.WearSpread(),
			ref.MappedPages(), ref.InvalidatedPages(), ref.WearSpread())
	}
	for lpn := int64(-1); lpn <= span; lpn++ {
		ppa, ok := a.lookup(lpn)
		refPPA, refOK := ref.l2p[lpn]
		if ppa != refPPA || ok != refOK {
			return fmt.Errorf("lookup(%d) = %+v, %v; reference %+v, %v", lpn, ppa, ok, refPPA, refOK)
		}
	}
	return nil
}

// TestFTLMatchesReference pins the extent map to the per-page FTL it
// replaced: seeded random runs of overlapping reads and writes, sized
// below, at and above the die count, on the drive's geometry and an odd
// one.
func TestFTLMatchesReference(t *testing.T) {
	for _, geo := range []Geometry{SmartSSDClass(), smallGeometry()} {
		dies := int64(geo.totalDies())
		span := 4 * dies
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]ftlOp, 60)
			for i := range ops {
				ops[i] = ftlOp{
					write: rng.Intn(2) == 0,
					lpn:   rng.Int63n(span),
					pages: rng.Int63n(3 * dies),
				}
			}
			if err := checkFTL(geo, ops, span+3*dies); err != nil {
				t.Fatalf("%dx%d dies, seed %d: %v", geo.Channels, geo.DiesPerChannel, seed, err)
			}
		}
	}
}

// FuzzFTLOps runs the reference comparison over arbitrary op sequences:
// the first byte picks the geometry, then three bytes per op give its
// kind, start page and length.
func FuzzFTLOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 40, 1, 0, 40, 0, 10, 5, 1, 0, 80})
	f.Add([]byte{1, 0, 3, 7, 0, 5, 2, 0, 1, 30, 1, 0, 63, 0, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		geo := SmartSSDClass()
		if data[0]&1 == 1 {
			geo = smallGeometry()
		}
		var ops []ftlOp
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			ops = append(ops, ftlOp{write: b[0]&1 == 0, lpn: int64(b[1] % 96), pages: int64(b[2] % 100)})
		}
		if err := checkFTL(geo, ops, 200); err != nil {
			t.Fatal(err)
		}
	})
}

// TestArrayOpsDoNotAllocate pins the FTL's cost to the extents touched: a
// read over several extents and an overwrite of an existing extent
// allocate nothing.
func TestArrayOpsDoNotAllocate(t *testing.T) {
	a := newArray(t)
	for i := int64(0); i < 8; i++ {
		a.Write(i*100, 90)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.Read(50, 500) }); allocs != 0 {
		t.Errorf("Read allocates %.1f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.Write(210, 40) }); allocs != 0 {
		t.Errorf("overwriting Write allocates %.1f objects per call, want 0", allocs)
	}
}
