package oracle

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/pomtlb"
	"repro/internal/tlb"
	"repro/internal/victima"
)

// randVA returns a page-aligned VA inside a small footprint so lookups
// collide, sets fill, and evictions fire.
func randVA(rng *rand.Rand, size addr.PageSize) addr.VA {
	const pages = 1 << 12
	return addr.VA(uint64(rng.Intn(pages)) << size.Shift())
}

func randSize(rng *rand.Rand) addr.PageSize {
	if rng.Intn(10) == 0 {
		return addr.Page2M
	}
	return addr.Page4K
}

func TestRefTLBAgreement(t *testing.T) {
	h := NewHarness()
	prod := tlb.MustNew(tlb.Config{Name: "test", Entries: 64, Ways: 4})
	NewRefTLB(h, prod)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		vm := addr.VMID(rng.Intn(2))
		pid := addr.PID(rng.Intn(3))
		size := randSize(rng)
		va := randVA(rng, size)
		switch op := rng.Intn(100); {
		case op < 55:
			prod.Lookup(vm, pid, va)
		case op < 90:
			prod.Insert(tlb.Entry{
				VM: vm, PID: pid, VPN: va.VPN(size), PFN: uint64(rng.Int63n(1 << 30)),
				Size: size, Valid: true,
			})
		case op < 96:
			prod.InvalidatePage(vm, pid, va.VPN(size), size)
		case op < 98:
			prod.InvalidateProcess(vm, pid)
		case op < 99:
			prod.InvalidateVM(vm)
		default:
			prod.InvalidateAll()
		}
	}
	if err := h.Err(); err != nil {
		t.Fatalf("reference diverged from production TLB: %v", err)
	}
	if err := prod.CheckInvariants(); err != nil {
		t.Fatalf("production TLB invariants: %v", err)
	}
	if h.Decisions() == 0 {
		t.Fatal("no decisions checked")
	}
}

func TestRefCacheAgreement(t *testing.T) {
	for _, prio := range []cache.Priority{cache.NoPriority, cache.PreferTLB, cache.PreferData} {
		t.Run(prio.String(), func(t *testing.T) {
			h := NewHarness()
			prod := cache.MustNew(cache.Config{
				Name: "test", SizeBytes: 16 << 10, Ways: 4, Latency: 1, Priority: prio,
			})
			NewRefCache(h, prod)
			rng := rand.New(rand.NewSource(2))
			for i := 0; i < 200_000; i++ {
				line := uint64(rng.Intn(1 << 11))
				write := rng.Intn(3) == 0
				kind := cache.Data
				if rng.Intn(4) == 0 {
					kind = cache.TLBEntry
				}
				switch op := rng.Intn(100); {
				case op < 80:
					if !prod.Access(line, write, kind) {
						prod.Fill(line, write, kind)
					}
				case op < 95:
					prod.Invalidate(line)
				default:
					prod.InvalidateKind(kind)
				}
			}
			if err := h.Err(); err != nil {
				t.Fatalf("reference diverged from production cache: %v", err)
			}
			if err := prod.CheckInvariants(); err != nil {
				t.Fatalf("production cache invariants: %v", err)
			}
		})
	}
}

func TestRefDRAMAgreement(t *testing.T) {
	for _, cfg := range []dram.Config{dram.DieStacked(), dram.DDR4_2133()} {
		t.Run(cfg.Name, func(t *testing.T) {
			h := NewHarness()
			prod := dram.MustNew(cfg)
			NewRefDRAM(h, prod)
			rng := rand.New(rand.NewSource(3))
			now := uint64(0)
			for i := 0; i < 200_000; i++ {
				// Mix of streaming (row hits) and random (misses/conflicts),
				// advancing time far enough to cross refresh intervals.
				a := addr.HPA(uint64(rng.Intn(1<<20)) * addr.CacheLineSize)
				prod.Access(now, a, rng.Intn(4) == 0)
				now += uint64(rng.Intn(200))
			}
			if err := h.Err(); err != nil {
				t.Fatalf("reference diverged from production DRAM: %v", err)
			}
			if err := prod.CheckInvariants(); err != nil {
				t.Fatalf("production DRAM invariants: %v", err)
			}
			if prod.Stats().Refreshes == 0 {
				t.Fatal("test never crossed a refresh interval")
			}
		})
	}
}

func TestRefPOMAgreement(t *testing.T) {
	for _, g := range []struct {
		sizeBytes uint64
		ways      int
	}{
		{1 << 20, 4}, // small enough that sets fill and evict
		{4 << 10, 2}, // fewer sets than one storage chunk
		{64, 2},      // a single 2-way set per partition
	} {
		cfg := pomtlb.DefaultConfig()
		cfg.SizeBytes = g.sizeBytes
		cfg.Ways = g.ways
		checkRefPOMAgreement(t, cfg)
	}
}

func checkRefPOMAgreement(t *testing.T, cfg pomtlb.Config) {
	t.Helper()
	h := NewHarness()
	prod := pomtlb.New(cfg)
	NewRefPOM(h, prod.Small)
	NewRefPOM(h, prod.Large)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300_000; i++ {
		vm := addr.VMID(rng.Intn(2))
		pid := addr.PID(rng.Intn(3))
		size := randSize(rng)
		part := prod.Partition(size)
		va := addr.VA(uint64(rng.Intn(1<<17)) << size.Shift())
		switch op := rng.Intn(100); {
		case op < 50:
			part.Search(vm, pid, va)
		case op < 92:
			part.Insert(pomtlb.Entry{
				Valid: true, VM: vm, PID: pid, VPN: va.VPN(size),
				PFN: uint64(rng.Int63n(1 << 30)), Size: size,
			})
		case op < 97:
			part.InvalidatePage(vm, pid, va.VPN(size))
		case op < 99:
			part.InvalidateProcess(vm, pid)
		default:
			part.InvalidateVM(vm)
		}
	}
	if err := h.Err(); err != nil {
		t.Fatalf("%d B, %d ways: reference diverged from production POM-TLB: %v", cfg.SizeBytes, cfg.Ways, err)
	}
	if err := prod.CheckInvariants(); err != nil {
		t.Fatalf("%d B, %d ways: production POM-TLB invariants: %v", cfg.SizeBytes, cfg.Ways, err)
	}
}

func TestRefVictimaAgreement(t *testing.T) {
	h := NewHarness()
	prod := victima.MustNew(victima.Config{Name: "test", Sets: 64, DonatedWays: 2}, 1<<52)
	NewRefVictima(h, prod)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200_000; i++ {
		vm := addr.VMID(rng.Intn(2))
		pid := addr.PID(rng.Intn(3))
		size := randSize(rng)
		va := randVA(rng, size)
		switch op := rng.Intn(100); {
		case op < 50:
			prod.Lookup(vm, pid, va)
		case op < 88:
			prod.Insert(tlb.Entry{
				VM: vm, PID: pid, VPN: va.VPN(size), PFN: uint64(rng.Int63n(1 << 30)),
				Size: size, Valid: true,
			})
		case op < 94:
			prod.InvalidatePage(vm, pid, va.VPN(size), size)
		case op < 97:
			prod.InvalidateProcess(vm, pid)
		case op < 99:
			// The L2 evicted one of the store's lines out from under it.
			prod.DropLine(1<<52 + uint64(rng.Intn(64)))
		default:
			prod.InvalidateAll()
		}
	}
	if err := h.Err(); err != nil {
		t.Fatalf("reference diverged from production victima store: %v", err)
	}
	if err := prod.CheckInvariants(); err != nil {
		t.Fatalf("production victima invariants: %v", err)
	}
	if h.Decisions() == 0 {
		t.Fatal("no decisions checked")
	}
}

// The watchdog must itself be tested: attaching a reference to a model
// that already holds state the reference never saw must produce
// divergences, proving the oracle actually detects drift.

func TestRefTLBDetectsDrift(t *testing.T) {
	prod := tlb.MustNew(tlb.Config{Name: "test", Entries: 64, Ways: 4})
	e := tlb.Entry{VM: 1, PID: 2, VPN: 0x42, PFN: 0x99, Size: addr.Page4K, Valid: true}
	prod.Insert(e) // before the shadow attaches: invisible to the reference
	h := NewHarness()
	NewRefTLB(h, prod)
	prod.Lookup(1, 2, addr.VA(0x42<<12))
	if h.Divergences() == 0 {
		t.Fatal("oracle missed a production entry the reference never saw")
	}
}

func TestRefCacheDetectsDrift(t *testing.T) {
	prod := cache.MustNew(cache.Config{Name: "test", SizeBytes: 16 << 10, Ways: 4, Latency: 1})
	prod.Fill(0x42, false, cache.Data)
	h := NewHarness()
	NewRefCache(h, prod)
	prod.Access(0x42, false, cache.Data)
	if h.Divergences() == 0 {
		t.Fatal("oracle missed a production line the reference never saw")
	}
}

func TestRefDRAMDetectsDrift(t *testing.T) {
	prod := dram.MustNew(dram.DieStacked())
	prod.Access(0, 0x1000, false) // opens a row before the shadow attaches
	h := NewHarness()
	NewRefDRAM(h, prod)
	prod.Access(100, 0x1000, false) // production row hit, reference expects closed
	if h.Divergences() == 0 {
		t.Fatal("oracle missed an open row the reference never saw")
	}
}

func TestRefPOMDetectsDrift(t *testing.T) {
	prod := pomtlb.New(pomtlb.DefaultConfig())
	e := pomtlb.Entry{Valid: true, VM: 1, PID: 2, VPN: 0x42, PFN: 0x99, Size: addr.Page4K}
	prod.Small.Insert(e)
	h := NewHarness()
	NewRefPOM(h, prod.Small)
	prod.Small.Search(1, 2, addr.VA(0x42<<12))
	if h.Divergences() == 0 {
		t.Fatal("oracle missed a production entry the reference never saw")
	}
}

func TestRefVictimaDetectsDrift(t *testing.T) {
	prod := victima.MustNew(victima.Config{Name: "test", Sets: 64, DonatedWays: 2}, 1<<52)
	e := tlb.Entry{VM: 1, PID: 2, VPN: 0x42, PFN: 0x99, Size: addr.Page4K, Valid: true}
	prod.Insert(e) // before the shadow attaches: invisible to the reference
	h := NewHarness()
	NewRefVictima(h, prod)
	prod.Lookup(1, 2, addr.VA(0x42<<12))
	if h.Divergences() == 0 {
		t.Fatal("oracle missed a production entry the reference never saw")
	}
}

func TestHarnessErrSummarises(t *testing.T) {
	h := NewHarness()
	if err := h.Err(); err != nil {
		t.Fatalf("empty harness reports error: %v", err)
	}
	for i := 0; i < maxStored+10; i++ {
		h.Reportf("divergence %d", i)
	}
	if h.Divergences() != maxStored+10 {
		t.Fatalf("got %d divergences, want %d", h.Divergences(), maxStored+10)
	}
	if got := len(h.Messages()); got != maxStored {
		t.Fatalf("stored %d messages, want cap %d", got, maxStored)
	}
	if h.Err() == nil {
		t.Fatal("diverged harness reports nil error")
	}
}
