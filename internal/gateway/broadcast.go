package gateway

import "sync/atomic"

// broadcast is one flush's worth of encoded frames, shared by reference
// across every subscriber ring: the batch (MsgReadingBatch) and sequenced
// (MsgSeqBatch) variants are each encoded exactly once into a single
// contiguous buffer, and subscribers hold sub-slices of it. Refcounting
// recycles the arena through the server's freelist once the last writer
// goroutine has drained it, so steady-state broadcasts allocate nothing.
//
// Lifecycle: the flush path (under seqMu) takes an arena from the
// freelist, encodes, sets refs to the shard count, and enqueues it to
// every shard. Each shard flusher adds one reference per subscriber ring
// it lands the frames in, then releases its own shard hold; each writer
// goroutine releases after writing (or on eviction/teardown). The last
// release returns the arena to the freelist.
type broadcast struct {
	refs atomic.Int64

	buf    []byte   // all frames, back to back
	bounds []int    // frame boundaries into buf; bounds[0] == 0
	frames [][]byte // one sub-slice of buf per frame

	// Variant views into frames (aliases, not copies).
	batch, seq [][]byte
}

// broadcastFreelist bounds how many idle arenas the server retains.
const broadcastFreelist = 8

// getBroadcast takes a recycled arena or allocates a fresh one.
func (s *Server) getBroadcast() *broadcast {
	select {
	case b := <-s.freeBcast:
		return b
	default:
		return &broadcast{}
	}
}

// releaseBroadcast drops one reference and recycles the arena when it
// was the last. Safe on nil (control entries carry no broadcast).
func (s *Server) releaseBroadcast(b *broadcast) {
	if b == nil || b.refs.Add(-1) != 0 {
		return
	}
	b.batch, b.seq = nil, nil
	select {
	case s.freeBcast <- b:
	default: // freelist full: let the GC take it
	}
}

// encodeBroadcast encodes s.pending once into b, in both variants.
// Returns the number of frames encoded (for the batch metric). Callers
// hold seqMu.
func (s *Server) encodeBroadcast(b *broadcast) int {
	b.buf = b.buf[:0]
	b.bounds = append(b.bounds[:0], 0)
	nBatch := s.encodeBatchInto(b, s.pending, 0, false)
	nSeq := s.encodeBatchInto(b, s.pending, s.pendingFirst, true)
	// Materialize the frame slices only after the buffer has stopped
	// growing (append may reallocate b.buf, invalidating sub-slices).
	b.frames = b.frames[:0]
	for i := 0; i+1 < len(b.bounds); i++ {
		b.frames = append(b.frames, b.buf[b.bounds[i]:b.bounds[i+1]])
	}
	b.batch = b.frames[:nBatch]
	b.seq = b.frames[nBatch:]
	return nBatch + nSeq
}

// encodeBatchInto appends readings to b as one MsgReadingBatch (or
// MsgSeqBatch when sequenced) frame, splitting recursively in the
// pathological case the encoded block exceeds the payload bound.
// Returns the number of frames appended. Callers hold seqMu.
func (s *Server) encodeBatchInto(b *broadcast, rds []Reading, firstSeq uint64, sequenced bool) int {
	if len(rds) == 0 {
		return 0
	}
	var payload []byte
	var err error
	if sequenced {
		payload, err = AppendSeqBatch(s.v2Payload[:0], firstSeq, rds)
	} else {
		payload, err = AppendReadingBatch(s.v2Payload[:0], rds)
	}
	if err == ErrOversize && len(rds) > 1 {
		half := len(rds) / 2
		n := s.encodeBatchInto(b, rds[:half], firstSeq, sequenced)
		return n + s.encodeBatchInto(b, rds[half:], firstSeq+uint64(half), sequenced)
	}
	if err != nil {
		s.logf("gateway: encode batch: %v", err)
		return 0
	}
	s.v2Payload = payload[:0]
	t := MsgReadingBatch
	if sequenced {
		t = MsgSeqBatch
	}
	buf, err := AppendFrame(b.buf, t, payload)
	if err != nil {
		s.logf("gateway: encode batch frame: %v", err)
		return 0
	}
	b.buf = buf
	b.bounds = append(b.bounds, len(b.buf))
	return 1
}

// appendSeqBatchFramesAlloc encodes readings as standalone MsgSeqBatch
// frames (fresh allocations — used by the rare resume path, whose frames
// are owned by a control entry rather than a shared arena).
func appendSeqBatchFramesAlloc(frames [][]byte, rds []Reading, firstSeq uint64, logf func(string, ...interface{})) [][]byte {
	if len(rds) == 0 {
		return frames
	}
	payload, err := AppendSeqBatch(nil, firstSeq, rds)
	if err == ErrOversize && len(rds) > 1 {
		half := len(rds) / 2
		frames = appendSeqBatchFramesAlloc(frames, rds[:half], firstSeq, logf)
		return appendSeqBatchFramesAlloc(frames, rds[half:], firstSeq+uint64(half), logf)
	}
	if err != nil {
		logf("gateway: encode seq batch: %v", err)
		return frames
	}
	frame, err := EncodeFrame(MsgSeqBatch, payload)
	if err != nil {
		logf("gateway: encode seq batch frame: %v", err)
		return frames
	}
	return append(frames, frame)
}
