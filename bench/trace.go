package main

import (
	"bufio"
	"io"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded only here, around the calls into each layer: a
// root span per operation and child spans from the wrappers at the
// three pure-interface seams (store.Options.FS, ClientOptions.Dialer,
// Server.Serve's listener). Nothing inside the engine is touched.

// spanRef names the root span a wrapper should parent its spans to.
// With one client that is a single process-wide variable (tracer.cur);
// each server-writers client has its own.
type spanRef = atomic.Uint64

// Child span kinds.
const (
	kindDBRead = iota
	kindDBWrite
	kindWALWrite
	kindSync
	kindCliWrite
	kindCliRTT
	kindSrvWrite
	numKinds
)

var kindNames = [numKinds]string{
	"vfs.db.read", "vfs.db.write", "vfs.wal.write", "vfs.sync",
	"wire.client.write", "wire.client.rtt", "wire.server.write",
}

// rootSpan is one operation (or one writer transaction, op < 0).
type rootSpan struct {
	id         uint64
	round, idx int
	op         opKind
	cls        class
	start, end int64 // ns since the tracer's epoch
}

type childSpan struct {
	parent     uint64
	kind       uint8
	start, end int64
}

// kindStat accumulates one child kind's calls, time and bytes.
type kindStat struct {
	calls, ns, bytes int64
}

type tracer struct {
	epoch time.Time
	cur   spanRef // the operation in flight; 0 between operations
	ids   atomic.Uint64

	mu       sync.Mutex
	roots    []rootSpan
	children []childSpan
	stat     [numKinds]kindStat

	wireIn, wireOut atomic.Int64 // bytes seen by the client conns
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) newID() uint64 { return tr.ids.Add(1) }

func (tr *tracer) root(id uint64, round, idx int, op opKind, cls class, start, end time.Time) {
	tr.mu.Lock()
	tr.roots = append(tr.roots, rootSpan{id, round, idx, op, cls, start.Sub(tr.epoch).Nanoseconds(), end.Sub(tr.epoch).Nanoseconds()})
	tr.mu.Unlock()
}

func (tr *tracer) child(parent *spanRef, kind uint8, start, end time.Time, bytes int) {
	s := childSpan{parent.Load(), kind, start.Sub(tr.epoch).Nanoseconds(), end.Sub(tr.epoch).Nanoseconds()}
	tr.mu.Lock()
	tr.children = append(tr.children, s)
	st := &tr.stat[kind]
	st.calls++
	st.ns += s.end - s.start
	st.bytes += int64(bytes)
	tr.mu.Unlock()
}

// reset forgets everything recorded so far (the warm-up's spans).
func (tr *tracer) reset() {
	tr.mu.Lock()
	tr.roots, tr.children = tr.roots[:0], tr.children[:0]
	tr.stat = [numKinds]kindStat{}
	tr.mu.Unlock()
	tr.wireIn.Store(0)
	tr.wireOut.Store(0)
}

// ---- vfs seam -----------------------------------------------------------

// fileLike is vfs.File's method set, restated so this file stays free
// of repository imports; adapter.go's tracedFS hands the wrapper back
// as a vfs.File.
type fileLike interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Size() (int64, error)
	Close() error
}

type tracedFile struct {
	fileLike
	tr    *tracer
	write uint8 // kindDBWrite or kindWALWrite
	wal   bool
}

func (tr *tracer) wrapFile(name string, f fileLike) *tracedFile {
	tf := &tracedFile{fileLike: f, tr: tr, write: kindDBWrite}
	if strings.HasSuffix(name, ".wal") {
		tf.write, tf.wal = kindWALWrite, true
	}
	return tf
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.fileLike.ReadAt(p, off)
	if !f.wal { // the log is read only by recovery, outside any window
		f.tr.child(&f.tr.cur, kindDBRead, start, time.Now(), n)
	}
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.fileLike.WriteAt(p, off)
	f.tr.child(&f.tr.cur, f.write, start, time.Now(), n)
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.fileLike.Sync()
	f.tr.child(&f.tr.cur, kindSync, start, time.Now(), 0)
	return err
}

// ---- wire seams ---------------------------------------------------------

// tracedConn wraps one end of a client/server connection. On the
// client end a Read's span starts when the request it answers had been
// written, not when the demultiplexer parked in Read, so idle time
// between operations is not counted as waiting on the wire. The server
// end records its writes only: its reads are waits for the client.
type tracedConn struct {
	net.Conn
	tr     *tracer
	parent *spanRef
	server bool

	mu        sync.Mutex
	lastWrite time.Time
	awaiting  bool
}

func (tr *tracer) wrapConn(c net.Conn, parent *spanRef) net.Conn {
	return &tracedConn{Conn: c, tr: tr, parent: parent}
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	end := time.Now()
	if c.server {
		c.tr.child(c.parent, kindSrvWrite, start, end, n)
		return n, err
	}
	c.mu.Lock()
	c.lastWrite, c.awaiting = end, true
	c.mu.Unlock()
	c.tr.wireOut.Add(int64(n))
	c.tr.child(c.parent, kindCliWrite, start, end, n)
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	if c.server || n == 0 {
		return n, err
	}
	c.mu.Lock()
	if c.awaiting && c.lastWrite.After(start) {
		start = c.lastWrite
	}
	c.awaiting = false
	c.mu.Unlock()
	c.tr.wireIn.Add(int64(n))
	c.tr.child(c.parent, kindCliRTT, start, time.Now(), n)
	return n, err
}

type tracedListener struct {
	net.Listener
	tr *tracer
}

func (tr *tracer) wrapListener(ln net.Listener) net.Listener { return tracedListener{ln, tr} }

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr, parent: &l.tr.cur, server: true}, nil
}

// ---- analysis -----------------------------------------------------------

// ioFrac returns, per class, the share of the operations' spans that
// their vfs and wire child spans cover (overlaps counted once); the
// rest is the operation's self time.
func (tr *tracer) ioFrac() [numClasses]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	byParent := make(map[uint64][][2]int64, len(tr.roots))
	for _, c := range tr.children {
		if c.parent != 0 {
			byParent[c.parent] = append(byParent[c.parent], [2]int64{c.start, c.end})
		}
	}
	var covered, total [numClasses]int64
	for _, r := range tr.roots {
		if r.op < 0 {
			continue
		}
		total[r.cls] += r.end - r.start
		iv := byParent[r.id]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		at := r.start
		for _, x := range iv {
			lo, hi := max(x[0], at), min(x[1], r.end)
			if hi > lo {
				covered[r.cls] += hi - lo
				at = hi
			}
		}
	}
	var out [numClasses]float64
	for c := range out {
		if total[c] > 0 {
			out[c] = float64(covered[c]) / float64(total[c])
		}
	}
	return out
}

// writeFile writes the spans as JSON: a name table, then one
// [id, parent, name, start_ns, end_ns] row per span.
func (tr *tracer) writeFile(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	tr.mu.Lock()
	w.WriteString(`{"workload":` + strconv.Quote(workload) + `,"columns":["id","parent","name","start_ns","end_ns"],"kinds":[`)
	for i, n := range kindNames {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n))
	}
	w.WriteString("],\n\"spans\":[\n")
	var row []byte
	first := true
	emit := func(id, parent uint64, name string, start, end int64) {
		row = row[:0]
		if !first {
			row = append(row, ",\n"...)
		}
		first = false
		row = append(row, '[')
		row = strconv.AppendUint(row, id, 10)
		row = append(row, ',')
		row = strconv.AppendUint(row, parent, 10)
		row = append(row, ',')
		row = append(row, name...)
		row = append(row, ',')
		row = strconv.AppendInt(row, start, 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, end, 10)
		row = append(row, ']')
		w.Write(row)
	}
	for _, r := range tr.roots {
		name := `"txn"`
		if r.op >= 0 {
			name = strconv.Quote(strconv.Itoa(r.round) + "." + strconv.Itoa(r.idx) + " " + opNames[r.op])
		}
		emit(r.id, 0, name, r.start, r.end)
	}
	for _, c := range tr.children {
		// Child rows name their kind by index into "kinds".
		emit(0, c.parent, strconv.Itoa(int(c.kind)), c.start, c.end)
	}
	tr.mu.Unlock()
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
