package wire

import (
	"bytes"
	"testing"

	"coterie/internal/replica"
)

// FuzzUnmarshal is the native fuzz target for the codec. The seed corpus
// holds one valid encoding of every message tag (sampleMessages covers all
// of them, plus an Envelope wrapper), and the property under fuzz is the
// strict round trip: decoding is canonical, so any input Unmarshal accepts
// must re-encode to EXACTLY the bytes it was decoded from. The codec's
// strictness (minimal varints, canonical sets, sorted group-state entries,
// no trailing bytes) is what makes this byte-equality hold for arbitrary
// accepted inputs rather than only for encoder output.
//
// Run long with: go test -fuzz=FuzzUnmarshal ./internal/wire
func FuzzUnmarshal(f *testing.F) {
	for _, msg := range sampleMessages() {
		buf, err := Marshal(msg)
		if err != nil {
			f.Fatalf("seeding %T: %v", msg, err)
		}
		f.Add(buf)
	}
	env, err := Marshal(replica.Envelope{Item: "item-0", Msg: replica.LockRequest{Op: op(1, 2), Mode: replica.LockWrite}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(env)
	run, err := Marshal(replica.Envelope{Item: "item-0", Msg: replica.PrepareUpdate{
		Op: op(1, 3), Update: replica.Update{Data: []byte("a")},
		More:       []replica.Update{{Offset: 1, Data: []byte("b")}, {Offset: 2, Data: []byte("c")}},
		NewVersion: 4,
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(run)
	// A few torn inputs so the fuzzer starts near the error paths too.
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(env[:len(env)/2])
	// The retired tags, each with a payload behind it: unknown, whatever follows.
	for tag := byte(28); tag <= 32; tag++ {
		f.Add([]byte{tag, 1, 1, 'a', 0})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unmarshal(data)
		if err != nil {
			return // rejected cleanly — the only acceptable failure mode
		}
		re, err := Marshal(msg)
		if err != nil {
			t.Fatalf("accepted input decoded to %T which does not re-encode: %v", msg, err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode→re-encode is not the identity for %T:\n in:  %x\n out: %x", msg, data, re)
		}
	})
}
