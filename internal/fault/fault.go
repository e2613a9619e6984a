// Package fault provides deterministic, seedable fault injection for
// the remote tier. Every failure mode a flaky network or a sick server
// exhibits — dropped connections, added latency, writes cut off in the
// middle of a frame, flipped bytes, backing-store errors and panics —
// can be reproduced exactly from a seed, so the fault-tolerance paths
// in internal/remote are tested deterministically instead of by luck.
//
// Three layers are wrapped:
//
//   - Conn/Listener inject faults directly on a net.Conn, for unit
//     tests that want a faulty transport under one endpoint.
//   - Proxy is a TCP middlebox: clients dial the proxy, the proxy
//     forwards to the real server and injects faults on the byte
//     stream in both directions. This is what the chaos soak uses —
//     neither endpoint is modified, exactly like a bad network.
//   - Space wraps a store.Space with scheduled errors and panics, for
//     testing the server's handler isolation.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Config sets the per-transfer fault probabilities. A "transfer" is
// one Read or Write on a wrapped connection, or one forwarded chunk in
// a Proxy. All probabilities default to zero (no faults); the zero
// Config is a transparent wrapper.
type Config struct {
	// Seed makes the fault schedule reproducible. Zero selects seed 1.
	Seed int64
	// DropProb closes the connection instead of transferring.
	DropProb float64
	// DelayProb sleeps a uniform duration in (0, MaxDelay] before the
	// transfer. Delays compose with the other faults.
	DelayProb float64
	// MaxDelay bounds injected delays (default 5ms).
	MaxDelay time.Duration
	// PartialProb transfers a strict prefix of the chunk and then
	// closes the connection: a mid-frame close.
	PartialProb float64
	// CorruptProb flips one byte of the chunk in flight.
	CorruptProb float64
	// Latency adds a fixed transit delay to every chunk a Proxy
	// forwards, in each direction (a round trip costs 2×Latency).
	// Unlike DelayProb — an inline stall that also throttles the
	// direction's bandwidth — Latency is a delay line: chunks stay in
	// flight concurrently and arrive in order, modeling propagation
	// delay on a real link. It is a property of the link, not a
	// fault: it applies even when injection is disabled, is not
	// counted in Stats, and is honored only by Proxy.
	Latency time.Duration
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 5 * time.Millisecond
	}
	return c
}

// Stats counts the faults an injector has delivered.
type Stats struct {
	Transfers   uint64 // chunks examined
	Drops       uint64 // connections closed outright
	Delays      uint64 // transfers delayed
	Partials    uint64 // mid-frame closes
	Corruptions uint64 // bytes flipped
}

// Total reports how many faults (of any kind) were injected.
func (s Stats) Total() uint64 { return s.Drops + s.Delays + s.Partials + s.Corruptions }

// ErrInjected is the error returned from a wrapped connection when a
// fault, rather than the real network, terminated the transfer.
var ErrInjected = errors.New("fault: injected failure")

// Injector draws the fault schedule. One injector may be shared by
// many connections (a Listener shares one across everything it
// accepts), in which case the schedule interleaves across them.
type Injector struct {
	mu    sync.Mutex
	cfg   Config
	rng   *rand.Rand
	stats Stats
}

// NewInjector returns a deterministic injector for the configuration.
func NewInjector(cfg Config) *Injector {
	cfg = cfg.withDefaults()
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats snapshots the fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// action is the verdict for one transfer. truncate < 0 means forward
// everything; corruptAt < 0 means corrupt nothing.
type action struct {
	delay     time.Duration
	drop      bool
	truncate  int
	corruptAt int
}

// decide draws the verdict for a transfer of n bytes. Rolls are drawn
// in a fixed order so a seed always yields the same schedule.
func (in *Injector) decide(n int) action {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Transfers++
	act := action{truncate: -1, corruptAt: -1}
	if in.cfg.DelayProb > 0 && in.rng.Float64() < in.cfg.DelayProb {
		act.delay = time.Duration(1 + in.rng.Int63n(int64(in.cfg.MaxDelay)))
		in.stats.Delays++
	}
	if in.cfg.DropProb > 0 && in.rng.Float64() < in.cfg.DropProb {
		act.drop = true
		in.stats.Drops++
		return act
	}
	if in.cfg.PartialProb > 0 && n > 1 && in.rng.Float64() < in.cfg.PartialProb {
		act.truncate = 1 + in.rng.Intn(n-1)
		in.stats.Partials++
		return act
	}
	if in.cfg.CorruptProb > 0 && n > 0 && in.rng.Float64() < in.cfg.CorruptProb {
		act.corruptAt = in.rng.Intn(n)
		in.stats.Corruptions++
	}
	return act
}

// Conn injects faults into one net.Conn. Reads and writes share the
// injector's schedule.
type Conn struct {
	net.Conn
	inj *Injector
}

// WrapConn wraps conn with the injector's fault schedule.
func WrapConn(conn net.Conn, inj *Injector) *Conn {
	return &Conn{Conn: conn, inj: inj}
}

// Write delivers p, or a fault instead: the connection may be closed
// before anything is sent (drop), after a strict prefix (mid-frame
// close), or the data may be delayed or have one byte flipped.
func (c *Conn) Write(p []byte) (int, error) {
	act := c.inj.decide(len(p))
	if act.delay > 0 {
		time.Sleep(act.delay)
	}
	if act.drop {
		c.Conn.Close()
		return 0, fmt.Errorf("%w: dropped write", ErrInjected)
	}
	if act.truncate >= 0 {
		n, _ := c.Conn.Write(p[:act.truncate])
		c.Conn.Close()
		return n, fmt.Errorf("%w: mid-frame close after %d/%d bytes", ErrInjected, act.truncate, len(p))
	}
	if act.corruptAt >= 0 {
		tmp := make([]byte, len(p))
		copy(tmp, p)
		tmp[act.corruptAt] ^= 0x80
		return c.Conn.Write(tmp)
	}
	return c.Conn.Write(p)
}

// Read receives data, subject to the same schedule: the delivery may
// be delayed, cut short (connection closed after a prefix), dropped
// entirely, or corrupted by one flipped byte.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil || n == 0 {
		return n, err
	}
	act := c.inj.decide(n)
	if act.delay > 0 {
		time.Sleep(act.delay)
	}
	if act.drop {
		c.Conn.Close()
		return 0, fmt.Errorf("%w: dropped read", ErrInjected)
	}
	if act.truncate >= 0 {
		c.Conn.Close()
		return act.truncate, fmt.Errorf("%w: mid-frame close after %d/%d bytes", ErrInjected, act.truncate, n)
	}
	if act.corruptAt >= 0 {
		p[act.corruptAt] ^= 0x80
	}
	return n, nil
}

// LimitConn writes at most limit bytes to the underlying connection
// and then closes it — the deterministic mid-frame close used by the
// table-driven truncation tests, which cut a response at every byte
// offset. Reads pass through untouched.
type LimitConn struct {
	net.Conn
	mu        sync.Mutex
	remaining int
}

// NewLimitConn wraps conn so that writes stop (and the connection
// closes) after limit bytes.
func NewLimitConn(conn net.Conn, limit int) *LimitConn {
	return &LimitConn{Conn: conn, remaining: limit}
}

// Write forwards up to the remaining byte budget, closing the
// connection at the boundary.
func (c *LimitConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		c.Conn.Close()
		return 0, fmt.Errorf("%w: write budget exhausted", ErrInjected)
	}
	if len(p) <= c.remaining {
		n, err := c.Conn.Write(p)
		c.remaining -= n
		return n, err
	}
	n, _ := c.Conn.Write(p[:c.remaining])
	c.remaining = 0
	c.Conn.Close()
	return n, fmt.Errorf("%w: truncated write at byte budget", ErrInjected)
}
