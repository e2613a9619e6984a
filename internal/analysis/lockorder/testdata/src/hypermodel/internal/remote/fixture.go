// Fixture for lockorder's blocking check, which is gated to the
// remote tier: no lock may be held across channel operations, selects
// without a default, time.Sleep, or net.Conn I/O — directly or
// through any depth of calls.
package remote

import (
	"net"
	"sync"
	"time"
)

type server struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	ch   chan int
	done chan struct{}
	conn net.Conn
}

// --- direct blocking operations under a lock ---

func (s *server) badSend() {
	s.mu.Lock()
	s.ch <- 1 // want `channel send while holding server.mu`
	s.mu.Unlock()
}

func (s *server) badRecv() {
	s.mu.Lock()
	<-s.ch // want `channel receive while holding server.mu`
	s.mu.Unlock()
}

func (s *server) badSelect() {
	s.mu.Lock()
	select { // want `select with no default while holding server.mu`
	case <-s.ch:
	case <-s.done:
	}
	s.mu.Unlock()
}

func (s *server) badSleep() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while holding server.mu`
	s.mu.Unlock()
}

func (s *server) badConnWrite(b []byte) {
	s.mu.Lock()
	s.conn.Write(b) // want `\(net.Conn\).Write while holding server.mu`
	s.mu.Unlock()
}

func (s *server) badRLocker(b []byte) {
	s.rw.RLocker().Lock()
	s.conn.Write(b) // want `\(net.Conn\).Write while holding server.rw \(read\)`
	s.rw.RLocker().Unlock()
}

// goodRLockerReleased: RLocker().Unlock() ends the RLock window.
func (s *server) goodRLockerReleased(b []byte) {
	s.rw.RLock()
	s.rw.RLocker().Unlock()
	s.conn.Write(b)
}

// --- blocking reached through helpers ---

func (s *server) wait() {
	<-s.done
}

func (s *server) deep() {
	s.wait()
}

func (s *server) badInterproc() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wait() // want `call to wait \(blocks: channel receive\) while holding server.mu`
}

func (s *server) badTwoLevels() {
	s.mu.Lock()
	s.deep() // want `call to deep \(blocks: channel receive\) while holding server.mu`
	s.mu.Unlock()
}

// --- non-flagging shapes ---

// goodSelectDefault never parks: a select with a default is a poll.
func (s *server) goodSelectDefault() {
	s.mu.Lock()
	select {
	case s.ch <- 1:
	default:
	}
	s.mu.Unlock()
}

// goodUnlockFirst drops the lock before blocking.
func (s *server) goodUnlockFirst() {
	s.mu.Lock()
	v := 1
	s.mu.Unlock()
	s.ch <- v
}

// goodSpawn holds the lock only while *spawning*; the goroutine
// blocks on its own time.
func (s *server) goodSpawn() {
	s.mu.Lock()
	go func() {
		<-s.done
	}()
	s.mu.Unlock()
}

// goodLeader is the group-commit leader shape: every blocking send and
// receive happens in the unlocked window of the loop.
func (s *server) goodLeader(jobs []chan int) {
	s.mu.Lock()
	for {
		batch := jobs
		jobs = nil
		if len(batch) == 0 {
			s.mu.Unlock()
			break
		}
		s.mu.Unlock()
		for _, j := range batch {
			j <- 1
		}
		s.mu.Lock()
	}
	<-s.done
}

// goodClose: closing a channel never blocks.
func (s *server) goodClose() {
	s.mu.Lock()
	close(s.done)
	s.mu.Unlock()
}

// --- suppressed ---

func (s *server) suppressed() {
	s.mu.Lock()
	s.ch <- 2 //hyperlint:allow lockorder -- the channel is buffered with capacity reserved per job; the send cannot park
	s.mu.Unlock()
}
