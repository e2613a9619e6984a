package store

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/vfs"
)

// TestCommitAllocs puts a ceiling on what a 13-page NoSync commit
// allocates (the size of a basket edit's commit). The WAL builds its
// records in one reused stage, the pool keeps its dirty set and a page
// Get hands out the frame's own handle, so what is left is per page:
// the committed snapshot installed for readers and its version-ring
// entry. Measured: 26 per commit; with an allocated handle per Get, 52;
// before staging and the kept dirty set, 88 (a make per log record, the
// frame-table scan's growing slice and sort.Slice).
func TestCommitAllocs(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "db"), &Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := make([]page.ID, 13)
	for i := range ids {
		id, h, err := s.Alloc(page.TypeSlotted)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
		ids[i] = id
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	var n byte
	commit := func() {
		n++
		for _, id := range ids {
			h, err := s.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			h.Page().Payload()[0] = n
			h.MarkDirty()
			h.Release()
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(200, commit); a > 26 {
		t.Fatalf("a 13-page commit allocates %v times, ceiling 26", a)
	}
}

// writeLog wraps an FS and records, in the order a crash FS counts
// them, the 1-based indices of the WAL writes longer than one sector:
// the commits' single writes.
type writeLog struct {
	inner  vfs.FS
	writes uint64
	at     []uint64
}

func (l *writeLog) Open(name string) (vfs.File, error) {
	f, err := l.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &loggedFile{File: f, log: l, wal: strings.HasSuffix(name, ".wal")}, nil
}

type loggedFile struct {
	vfs.File
	log *writeLog
	wal bool
}

func (f *loggedFile) WriteAt(p []byte, off int64) (int, error) {
	f.log.writes++
	if f.wal && len(p) > 512 {
		f.log.at = append(f.log.at, f.log.writes)
	}
	return f.File.WriteAt(p, off)
}

// TestTornCommitWrite cuts the power at the one write that carries a
// multi-page commit to the WAL. A power cut can keep any subset of
// that write's sectors, whole or torn — a later one while an earlier
// one is lost. Every frame carries a CRC and replay stops at the first
// bad one, before the commit record it would need, so recovery must
// land on a whole batch: all of the cut commit or none of it.
func TestTornCommitWrite(t *testing.T) {
	const batches, perBatch = 6, 8
	rec := &writeLog{inner: vfs.NewCrash(vfs.NewMem(), vfs.CrashConfig{})}
	if err := sweepWorkload(rec, batches, perBatch); err != nil {
		t.Fatalf("fault-free workload failed: %v", err)
	}
	if len(rec.at) < batches {
		t.Fatalf("found %d multi-sector WAL writes, want one per commit (%d)", len(rec.at), batches)
	}
	for seed := int64(1); seed <= 8; seed++ {
		for _, n := range rec.at {
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

// TestGetHitAllocs pins the warm read path's floor: a Get that hits
// the pool, and its Release, allocate nothing, on the store (which
// hands out the frame's own handle) and on a ReadView (whose handle
// wraps the committed snapshot by value).
func TestGetHitAllocs(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "db"), &Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, h, err := s.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, sp := range []struct {
		name string
		get  func(page.ID) (Handle, error)
	}{{"Store", s.Get}, {"ReadView", s.ReadView().Get}} {
		got := testing.AllocsPerRun(200, func() {
			h, err := sp.get(id)
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
		})
		if got != 0 {
			t.Errorf("%s: a hit Get+Release allocates %v times, want 0", sp.name, got)
		}
	}
}
