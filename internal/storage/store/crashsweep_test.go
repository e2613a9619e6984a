package store

import (
	"encoding/binary"
	"fmt"
	"testing"

	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/vfs"
)

// sweepWorkload runs the scripted group-commit history on fs: allocate
// perBatch pages and checkpoint a baseline (root 1000, pages zero),
// then `batches` group commits — batch k writes k into every page and
// moves the root to 1000+k under one CommitTokens barrier. Under a
// crash FS the workload dies mid-flight with ErrPowerCut; the first
// error is returned and everything after it abandoned, exactly like a
// process losing power.
func sweepWorkload(fs vfs.FS, batches, perBatch int) error {
	s, err := Open("db", &Options{FS: fs, CheckpointBytes: -1})
	if err != nil {
		return err
	}
	ids := make([]page.ID, 0, perBatch)
	for i := 0; i < perBatch; i++ {
		id, h, err := s.Alloc(page.TypeSlotted)
		if err != nil {
			return err
		}
		h.Release()
		ids = append(ids, id)
	}
	s.SetRoot(0, page.ID(1000))
	if err := s.Checkpoint(); err != nil {
		return err
	}
	for k := 1; k <= batches; k++ {
		tokens := make([]uint64, 0, perBatch)
		for j, id := range ids {
			h, err := s.Get(id)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(h.Page().Payload(), uint64(k))
			h.MarkDirty()
			h.Release()
			tokens = append(tokens, uint64(k*100+j+1))
		}
		s.SetRoot(0, page.ID(1000+k))
		if err := s.CommitTokens(tokens); err != nil {
			return err
		}
	}
	return s.Close()
}

// verifySurvivor reopens the post-crash state and asserts the two
// invariants every crash point must preserve: (1) recovery lands on a
// single batch boundary — root 1000+k with every page holding k, for
// one k in [0, batches], or the pre-baseline fresh state — never a
// torn or mixed batch; (2) Scrub finds zero damage.
func verifySurvivor(t *testing.T, fs vfs.FS, batches, perBatch int, label string) {
	t.Helper()
	s, err := Open("db", &Options{FS: fs})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer s.Close()

	root := s.Root(0)
	if root == page.Invalid {
		// Crash before the baseline checkpoint committed the root:
		// the recovered store is (re)initialized and empty-ish. Only
		// the scrub invariant applies.
	} else {
		k := int(uint64(root) - 1000)
		if k < 0 || k > batches {
			t.Fatalf("%s: recovered root %d names batch %d, history has 0..%d", label, root, k, batches)
		}
		for i := 0; i < perBatch; i++ {
			id := page.ID(1 + i) // fresh DB allocates 1..perBatch
			if uint64(id) >= s.PageCount() {
				t.Fatalf("%s: root claims batch %d but page %d is missing", label, k, id)
			}
			h, err := s.Get(id)
			if err != nil {
				t.Fatalf("%s: page %d unreadable after recovery to batch %d: %v", label, id, k, err)
			}
			got := binary.LittleEndian.Uint64(h.Page().Payload())
			h.Release()
			if got != uint64(k) {
				t.Fatalf("%s: torn batch: root says %d, page %d says %d", label, k, id, got)
			}
		}
	}

	if rep := s.Scrub(); !rep.Clean() {
		t.Fatalf("%s: scrub after recovery found damage:\n%s", label, rep)
	}
}

// countSyncs runs the workload on a transparent crash FS and reports
// how many fsync barriers it crosses — the sweep range.
func countSyncs(t *testing.T, batches, perBatch int) uint64 {
	t.Helper()
	cfs := vfs.NewCrash(vfs.NewMem(), vfs.CrashConfig{})
	if err := sweepWorkload(cfs, batches, perBatch); err != nil {
		t.Fatalf("fault-free workload failed: %v", err)
	}
	n := cfs.Syncs()
	if n < uint64(batches) {
		t.Fatalf("workload crossed %d sync barriers, fewer than its %d commits", n, batches)
	}
	return n
}

// TestCrashSweepEveryFsyncBarrier is the acceptance sweep: a scripted
// workload of 20 group commits is killed at every fsync barrier it
// crosses — on both sides of the barrier (cut before the flush
// applied, and just after) — with unsynced sector writes dropped and
// torn under three seeds. Every survivor must recover all-or-nothing
// and scrub clean.
func TestCrashSweepEveryFsyncBarrier(t *testing.T) {
	const batches, perBatch = 20, 4
	syncs := countSyncs(t, batches, perBatch)
	for _, seed := range []int64{1, 7, 42} {
		for _, applied := range []bool{false, true} {
			for n := uint64(1); n <= syncs; n++ {
				label := fmt.Sprintf("seed=%d applied=%v sync=%d", seed, applied, n)
				base := vfs.NewMem()
				cfs := vfs.NewCrash(base, vfs.CrashConfig{
					Seed:          seed,
					CrashAtSync:   n,
					SyncApplied:   applied,
					DropWriteProb: 0.35,
					TornWriteProb: 0.35,
				})
				err := sweepWorkload(cfs, batches, perBatch)
				if !cfs.Crashed() {
					t.Fatalf("%s: cut never fired (workload err %v)", label, err)
				}
				if err == nil {
					t.Fatalf("%s: workload survived its own power cut", label)
				}
				verifySurvivor(t, base, batches, perBatch, label)
			}
		}
	}
}

// TestCrashSweepMidWrite cuts the power mid-workload at strided write
// counts instead of sync barriers — the torn-write variant: the
// triggering write itself settles torn, dropped, or applied with
// everything else pending. A commit is one WAL write plus its
// write-backs, so the workload issues 128 writes and the writes/64+1
// stride of 3 visits a third of them. It misses every commit's WAL
// write, which TestTornCommitWrite cuts at directly.
func TestCrashSweepMidWrite(t *testing.T) {
	const batches, perBatch = 20, 4
	cfs0 := vfs.NewCrash(vfs.NewMem(), vfs.CrashConfig{})
	if err := sweepWorkload(cfs0, batches, perBatch); err != nil {
		t.Fatalf("fault-free workload failed: %v", err)
	}
	writes := cfs0.Writes()
	if writes == 0 {
		t.Fatal("workload issued no writes")
	}
	stride := writes/64 + 1
	for _, seed := range []int64{3, 11, 99} {
		for n := uint64(1); n <= writes; n += stride {
			label := fmt.Sprintf("seed=%d write=%d", seed, n)
			base := vfs.NewMem()
			cfs := vfs.NewCrash(base, vfs.CrashConfig{
				Seed:          seed,
				CrashAtWrite:  n,
				DropWriteProb: 0.35,
				TornWriteProb: 0.35,
			})
			err := sweepWorkload(cfs, batches, perBatch)
			if !cfs.Crashed() {
				t.Fatalf("%s: cut never fired (workload err %v)", label, err)
			}
			if err == nil {
				t.Fatalf("%s: workload survived its own power cut", label)
			}
			verifySurvivor(t, base, batches, perBatch, label)
		}
	}
}

// TestCrashThenCorruptionScrub drives the full robustness story end to
// end: power-cut a workload, recover, then corrupt one page of the
// survivor and confirm Scrub pinpoints exactly that page while reads
// surface the typed error.
func TestCrashThenCorruptionScrub(t *testing.T) {
	const batches, perBatch = 6, 3
	base := vfs.NewMem()
	cfs := vfs.NewCrash(base, vfs.CrashConfig{
		Seed:          5,
		CrashAtSync:   8,
		DropWriteProb: 0.5,
		TornWriteProb: 0.25,
	})
	if err := sweepWorkload(cfs, batches, perBatch); err == nil {
		t.Fatal("workload survived its power cut")
	}
	verifySurvivor(t, base, batches, perBatch, "pre-corruption")

	corruptPage(t, base, "db", 2, 1000, 32)
	s, err := Open("db", &Options{FS: base})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep := s.Scrub()
	if rep.Clean() || len(rep.Damaged) != 1 || rep.Damaged[0].ID != 2 {
		t.Fatalf("scrub did not pinpoint page 2:\n%s", rep)
	}
}
