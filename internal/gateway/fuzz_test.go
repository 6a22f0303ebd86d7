package gateway

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// FuzzReadFrame feeds arbitrary bytes to the wire-frame reader: it must
// reject garbage without panicking, and round-trip anything it accepts.
// Encoder and decoder share the MaxPayloadSize bound, so every accepted
// frame must be one the encoder could have produced.
func FuzzReadFrame(f *testing.F) {
	batch, _ := AppendReadingBatch(nil, []Reading{testReading()})
	good, _ := EncodeFrame(MsgReadingBatch, batch)
	f.Add(good)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x56}, 64))
	// Boundary seeds: the largest encodable frame and a header one byte
	// past the shared payload bound.
	biggest, _ := EncodeFrame(MsgReading, make([]byte, MaxPayloadSize))
	f.Add(biggest)
	f.Add(oversizeHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > MaxPayloadSize {
			t.Fatalf("accepted %d-byte payload beyond MaxPayloadSize=%d", len(payload), MaxPayloadSize)
		}
		re, err := EncodeFrame(typ, payload)
		if err != nil {
			t.Fatalf("accepted frame failed to encode: %v", err)
		}
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("frame prefix mismatch")
		}
	})
}

// oversizeHeader builds a well-formed header announcing MaxPayloadSize+1
// payload bytes (and supplies them), which the decoder must reject.
func oversizeHeader() []byte {
	hdr := binary.BigEndian.AppendUint32(nil, Magic)
	hdr = append(hdr, byte(MsgReading))
	hdr = binary.BigEndian.AppendUint32(hdr, MaxPayloadSize+1)
	return append(hdr, make([]byte, MaxPayloadSize+1)...)
}

// FuzzBatchDecode hammers the v2 batch decoder with arbitrary payloads:
// it must never panic, and any payload it accepts must survive a
// re-encode/re-decode cycle with identical readings. The decoder's
// strict full-consumption and range rules keep the accepted set inside
// what the encoder can reproduce (modulo non-canonical varints, which
// re-encode canonically — hence a semantic, not byte, round trip).
func FuzzBatchDecode(f *testing.F) {
	one, _ := AppendReadingBatch(nil, []Reading{testReading()})
	f.Add(one)
	rd2 := testReading()
	rd2.Seq++
	rd2.Count++
	rd2.TempC += 0.07
	rd2.Time = rd2.Time.Add(250 * time.Millisecond)
	two, _ := AppendReadingBatch(nil, []Reading{testReading(), rd2})
	f.Add(two)
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, p []byte) {
		rds, err := DecodeReadingBatch(p)
		if err != nil {
			return
		}
		if len(rds) == 0 {
			t.Fatal("accepted payload produced zero readings")
		}
		re, err := AppendReadingBatch(nil, rds)
		if err != nil {
			t.Fatalf("accepted readings failed to re-encode: %v", err)
		}
		rds2, err := DecodeReadingBatch(re)
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		if len(rds2) != len(rds) {
			t.Fatalf("re-decode count %d, want %d", len(rds2), len(rds))
		}
		for i := range rds {
			if !rds2[i].Time.Equal(rds[i].Time) {
				t.Fatalf("reading %d time mismatch: %v vs %v", i, rds2[i].Time, rds[i].Time)
			}
			a, b := rds[i], rds2[i]
			a.Time, b.Time = time.Time{}, time.Time{}
			if a != b {
				t.Fatalf("reading %d mismatch:\n got  %+v\n want %+v", i, b, a)
			}
		}
	})
}
