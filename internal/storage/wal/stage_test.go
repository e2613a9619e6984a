package wal

import (
	"errors"
	"testing"

	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/vfs"
)

var errInjected = errors.New("injected write failure")

// countFile wraps a log file, counting WriteAt calls and failing the
// next one on request. With discard set, writes succeed without
// storing anything, so a test can append forever in constant memory.
type countFile struct {
	vfs.File
	writes   int
	failNext bool
	discard  bool
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	f.writes++
	if f.failNext {
		f.failNext = false
		return 0, errInjected
	}
	if f.discard {
		return len(p), nil
	}
	return f.File.WriteAt(p, off)
}

// countFS opens every file on a fresh in-memory FS through a countFile
// and keeps the last one.
type countFS struct {
	mem     *vfs.MemFS
	discard bool
	file    *countFile
}

func (fs *countFS) Open(name string) (vfs.File, error) {
	f, err := fs.mem.Open(name)
	if err != nil {
		return nil, err
	}
	fs.file = &countFile{File: f, discard: fs.discard}
	return fs.file, nil
}

// openCounted opens a log on a fresh in-memory FS behind a countFile
// and returns the FS for reading the raw bytes back.
func openCounted(t *testing.T, discard bool) (*WAL, *countFile, *vfs.MemFS) {
	t.Helper()
	fs := &countFS{mem: vfs.NewMem(), discard: discard}
	w, err := OpenFS(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	return w, fs.file, fs.mem
}

// TestOneWritePerBarrier: page records only stage; each barrier kind
// writes the records before it and itself with a single WriteAt, at
// the LSNs and sizes one write per record would give.
func TestOneWritePerBarrier(t *testing.T) {
	barriers := map[string]func(w *WAL) (uint64, error){
		"Commit":       func(w *WAL) (uint64, error) { return w.AppendCommit(1) },
		"CommitNoSync": func(w *WAL) (uint64, error) { return w.AppendCommitNoSync(1) },
		"Group":        func(w *WAL) (uint64, error) { return w.AppendCommitGroup(1, []uint64{7, 8}, false) },
		"GroupNoSync":  func(w *WAL) (uint64, error) { return w.AppendCommitGroup(1, []uint64{7, 8}, true) },
		"Prepare":      func(w *WAL) (uint64, error) { return w.AppendPrepare(9, []RootUpdate{{1, 5}}, []page.ID{6}) },
		"Decide":       func(w *WAL) (uint64, error) { return w.AppendDecide(9, true) },
		"DecideNoSync": func(w *WAL) (uint64, error) { return w.AppendDecideNoSync(9, false) },
	}
	const n = 13
	for name, barrier := range barriers {
		w, cf, mem := openCounted(t, false)
		for i := 0; i < n; i++ {
			lsn, err := w.AppendPage(page.ID(i+1), mkPage(t, byte(i)))
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(i * (frameHeader + 1 + 8 + page.Size)); lsn != want {
				t.Fatalf("%s: page %d LSN %d, want %d", name, i, lsn, want)
			}
		}
		if cf.writes != 0 {
			t.Fatalf("%s: %d writes before the barrier, want 0", name, cf.writes)
		}
		if _, err := barrier(w); err != nil {
			t.Fatal(err)
		}
		if cf.writes != 1 {
			t.Fatalf("%s: %d writes for %d pages and a barrier, want 1", name, cf.writes, n)
		}
		raw, err := mem.ReadFile("wal")
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(raw)) != w.Size() {
			t.Fatalf("%s: file holds %d bytes, log size %d", name, len(raw), w.Size())
		}
		if rep := w.Scan(); rep.Records != n+1 || rep.TailBytes != 0 || rep.Malformed {
			t.Fatalf("%s: scan %+v, want %d records and no tail", name, rep, n+1)
		}
		w.Close()
	}
}

// TestStagedRecordsWrittenBySyncCloseScan: a run of page records with
// no barrier still reaches the file through Sync, Close and Scan.
func TestStagedRecordsWrittenBySyncCloseScan(t *testing.T) {
	for name, flush := range map[string]func(w *WAL) error{
		"Sync":  func(w *WAL) error { return w.Sync() },
		"Close": func(w *WAL) error { return w.Close() },
		"Scan":  func(w *WAL) error { w.Scan(); return nil },
	} {
		w, cf, mem := openCounted(t, false)
		for i := 0; i < 3; i++ {
			if _, err := w.AppendPage(page.ID(i+1), mkPage(t, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		size := w.Size()
		if err := flush(w); err != nil {
			t.Fatal(err)
		}
		raw, err := mem.ReadFile("wal")
		if err != nil {
			t.Fatal(err)
		}
		if cf.writes != 1 || int64(len(raw)) != size {
			t.Fatalf("%s: %d writes, %d bytes on file; want 1 write of %d", name, cf.writes, len(raw), size)
		}
		w.Close()
	}
}

// TestFailedWriteRollsBack: a failed barrier write drops the staged
// records and rolls the size back, so the retried commit lands right
// after the last written record and replays with no gap.
func TestFailedWriteRollsBack(t *testing.T) {
	w, cf, mem := openCounted(t, false)
	if _, err := w.AppendPage(1, mkPage(t, 0x11)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendCommit(1); err != nil {
		t.Fatal(err)
	}
	good := w.Size()
	for i := 0; i < 2; i++ {
		if _, err := w.AppendPage(2, mkPage(t, 0x22)); err != nil {
			t.Fatal(err)
		}
	}
	cf.failNext = true
	if _, err := w.AppendCommit(2); !errors.Is(err, errInjected) {
		t.Fatalf("commit over a failing write: err %v", err)
	}
	if w.Size() != good {
		t.Fatalf("size %d after the failed write, want %d", w.Size(), good)
	}
	lsn, err := w.AppendPage(2, mkPage(t, 0x22))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != uint64(good) {
		t.Fatalf("retried record at LSN %d, want %d", lsn, good)
	}
	if _, err := w.AppendCommit(2); err != nil {
		t.Fatal(err)
	}
	if rep := w.Scan(); rep.Commits != 2 || rep.TailBytes != 0 || rep.Malformed {
		t.Fatalf("scan after retry: %+v", rep)
	}
	w.Close()

	applied := map[page.ID]byte{}
	if err := reopen(t, mem).Replay(func(id page.ID, p *page.Page) error {
		applied[id] = p.Payload()[0]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(applied) != 2 || applied[1] != 0x11 || applied[2] != 0x22 {
		t.Fatalf("replayed %v, want both commits", applied)
	}
}

// TestLargeStageWrittenEarly: past the stage bound a page append writes
// the stage, so a bulk commit holds at most about stageLimit bytes.
func TestLargeStageWrittenEarly(t *testing.T) {
	w, cf, _ := openCounted(t, true)
	defer w.Close()
	img := mkPage(t, 0x5A)
	const n = 2 * stageLimit / page.Size
	for i := 0; i < n; i++ {
		if _, err := w.AppendPage(page.ID(i+1), img); err != nil {
			t.Fatal(err)
		}
		if len(w.stage) >= stageLimit {
			t.Fatalf("stage holds %d bytes after page %d", len(w.stage), i)
		}
	}
	if cf.writes == 0 {
		t.Fatalf("%d pages staged with no early write", n)
	}
}

// TestAppendPageAllocs: in steady state a commit builds its records in
// the reused stage, with no per-record allocation.
func TestAppendPageAllocs(t *testing.T) {
	w, _, _ := openCounted(t, true)
	defer w.Close()
	img := mkPage(t, 0x42)
	commit := func() {
		for i := 0; i < 16; i++ {
			if _, err := w.AppendPage(page.ID(i+1), img); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.AppendCommitNoSync(1); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, commit); a != 0 {
		t.Fatalf("a 16-page commit allocates %v times, want 0", a)
	}
}
