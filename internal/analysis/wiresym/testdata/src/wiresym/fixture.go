// Fixture for the wiresym analyzer: per-opcode request scripts
// recovered from encoders (opcode anchors plus appends) and from the
// dispatch switch's handlers (reads, cursor closures, inlined decode
// helpers), then compared; per-opcode encoder and dispatch counts; and
// the framing helpers' call-site pin.
package wiresym

import "encoding/binary"

const (
	opPut    = 1  // matched: u64 id + page bytes
	opGet    = 2  // matched: u64, decoder behind one inlined helper
	opList   = 3  // mismatched loop element width
	opSet    = 4  // matched: single u8
	opSwap   = 5  // mismatched scalar width
	opPing   = 6  // matched: empty body on both sides
	opOrphan = 7  // encoded, never dispatched
	opGhost  = 8  // dispatched, never encoded
	opDrop   = 9  // want `opcode opDrop is neither encoded nor dispatched: dead wire surface`
	opHeld   = 10 //hyperlint:allow wiresym -- reserved wire number, intentionally unwired
	opStore  = 11 // matched: u64, shares its decoder with opStage
	opStage  = 12 // matched: u64, same handler as opStore
	opFlag   = 13 // matched: u64 token + u8 flag from a byte variable
	opTwice  = 14 // two encoders
	opDouble = 15 // two dispatch cases
)

const (
	statusOK  = 0
	statusBad = 1
)

// --- encoders ---

func encodePut(id uint64, img []byte) []byte {
	b := []byte{opPut}
	b = binary.LittleEndian.AppendUint64(b, id)
	b = append(b, img...)
	return b
}

// encodeGet rebuilds its request each retry attempt: the anchor inside
// the loop keeps the script serial instead of loop-grouped.
func encodeGet(id uint64) []byte {
	var b []byte
	for attempt := 0; attempt < 3; attempt++ {
		b = b[:0]
		b = append(b, opGet)
		b = binary.LittleEndian.AppendUint64(b, id)
		if len(b) > 0 {
			break
		}
	}
	return b
}

func encodeList(ids []uint64) []byte {
	b := []byte{opList} // want `request opList: encoder writes \[u32 loop\{u64\}\] but decoder reads \[u32 loop\{u32\}\]`
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint64(b, id)
	}
	return b
}

func encodeSet(k byte) []byte {
	return []byte{opSet, k}
}

func encodeSwap(slot uint32) []byte {
	b := []byte{opSwap} // want `request opSwap: encoder writes \[u32\] but decoder reads \[u64\]`
	b = binary.LittleEndian.AppendUint32(b, slot)
	return b
}

func encodePing() []byte {
	return []byte{opPing}
}

func encodeOrphan() []byte {
	return []byte{opOrphan} // want `opOrphan is encoded here but the request dispatch has no case for it`
}

// encodeStore and encodeStage build byte-identical bodies; the dispatch
// routes both to one handler, so each encoder is checked against the
// same decoder script (the prepare/decide token shape).
func encodeStore(tok uint64) []byte {
	b := []byte{opStore}
	b = binary.LittleEndian.AppendUint64(b, tok)
	return b
}

func encodeStage(tok uint64) []byte {
	b := []byte{opStage}
	b = binary.LittleEndian.AppendUint64(b, tok)
	return b
}

// encodeFlag appends a computed flag byte after the token: the u8 write
// must be recognized from a byte-typed variable, not only a literal.
func encodeFlag(tok uint64, commit bool) []byte {
	flag := byte(0)
	if commit {
		flag = 1
	}
	b := []byte{opFlag}
	b = binary.LittleEndian.AppendUint64(b, tok)
	b = append(b, flag)
	return b
}

func encodeTwice() []byte {
	return []byte{opTwice} // want `opTwice has 2 encoders, want exactly 1`
}

func encodeTwiceAgain() []byte {
	return []byte{opTwice} // want `opTwice has 2 encoders, want exactly 1`
}

func encodeDouble() []byte {
	return []byte{opDouble}
}

// --- dispatch ---

func serve(req []byte) []byte {
	if len(req) == 0 {
		return nil
	}
	switch req[0] {
	case opPut:
		return handlePut(req[1:])
	case opGet:
		return handleGet(req[1:])
	case opList:
		return handleList(req[1:])
	case opSet:
		return handleSet(req[1:])
	case opSwap:
		return handleSwap(req[1:])
	case opPing:
		return nil
	case opGhost: // want `opGhost has a dispatch case but no encoder builds its request`
		return handleGhost(req[1:])
	case opStore:
		return handleStore(req[1:])
	case opStage:
		return handleStore(req[1:])
	case opFlag:
		return handleFlag(req[1:])
	case opTwice:
		return nil
	case opDouble: // want `opDouble has 2 dispatch cases, want exactly 1`
		return nil
	}
	return nil
}

// serveAgain is a second dispatch switch: its opDouble case is a
// duplicate route for one request.
func serveAgain(req []byte) []byte {
	switch req[0] {
	case opDouble: // want `opDouble has 2 dispatch cases, want exactly 1`
		return nil
	}
	return nil
}

// --- handlers ---

// handlePut reads through cursor closures, like decodeCommit.
func handlePut(body []byte) []byte {
	off := 0
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(body[off:])
		off += 8
		return v
	}
	id := u64()
	img := body[off:]
	_, _ = id, img
	return nil
}

// handleGet hands the body to a decode helper: one-level inlining.
func handleGet(body []byte) []byte {
	id := parseGet(body)
	_ = id
	return nil
}

func parseGet(body []byte) uint64 {
	if len(body) != 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(body)
}

// handleList reads u32 elements against the encoder's u64s.
func handleList(body []byte) []byte {
	n := int(binary.LittleEndian.Uint32(body))
	for i := 0; i < n; i++ {
		_ = binary.LittleEndian.Uint32(body[4+4*i:])
	}
	return nil
}

func handleSet(body []byte) []byte {
	if len(body) != 1 {
		return nil
	}
	k := body[0]
	_ = k
	return nil
}

func handleSwap(body []byte) []byte {
	_ = binary.LittleEndian.Uint64(body)
	return nil
}

func handleGhost(body []byte) []byte {
	_ = binary.LittleEndian.Uint64(body)
	return nil
}

// handleStore serves two opcodes whose requests share one shape.
func handleStore(body []byte) []byte {
	_ = binary.LittleEndian.Uint64(body)
	return nil
}

func handleFlag(body []byte) []byte {
	tok := binary.LittleEndian.Uint64(body)
	commit := body[8] == 1
	_, _ = tok, commit
	return nil
}

// --- shapes that must not confuse the analyzer ---

// retryable classifies an already-extracted opcode byte; its switch has
// an identifier tag, not a frame index, so it is not a dispatch switch
// (and must not make opGet look double-dispatched).
func retryable(op byte) bool {
	switch op {
	case opGet, opList:
		return true
	}
	return false
}

// readStatus switches over a response frame's first byte, but its
// cases are status constants: a response classifier, not a request
// dispatch.
func readStatus(body []byte) []byte {
	switch body[0] {
	case statusOK:
		return body[1:]
	case statusBad:
		return nil
	}
	return nil
}

// buildResponse writes with PutUintN but never anchors an opcode:
// responses are outside the request symmetry check.
func buildResponse(ver uint64, img []byte) []byte {
	resp := make([]byte, 8)
	binary.LittleEndian.PutUint64(resp, ver)
	return append(resp, img...)
}

// --- framing helpers ---

type Server struct{}

// frameID is well pinned: one server call, one client call.
func frameID(frame []byte) uint64 {
	return binary.LittleEndian.Uint64(frame)
}

// appendFrameID has drifted: two client calls, no server call.
func appendFrameID(b []byte, id uint64) []byte { // want `framing helper appendFrameID has 0 server call sites, want exactly 1` `framing helper appendFrameID has 2 client call sites, want exactly 1`
	return binary.LittleEndian.AppendUint64(b, id)
}

func (s *Server) readHeader(frame []byte) uint64 {
	return frameID(frame)
}

func clientDemux(frame []byte) uint64 {
	return frameID(frame)
}

func clientFrame(b []byte) []byte {
	b = appendFrameID(b, 1)
	return appendFrameID(b, 2)
}
