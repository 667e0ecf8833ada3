package kvstore

import (
	"bytes"
	"testing"

	"lite/internal/simtime"
)

// FuzzDecodeRequest: a request frame either fails to decode or
// re-encodes to exactly the bytes it came from; it never panics. The
// seed corpus runs as a unit test.
func FuzzDecodeRequest(f *testing.F) {
	for _, r := range []request{
		{op: opPut, key: "k", value: []byte("value")},
		{op: opPut, key: "t7/key"},
		{op: opLookup, key: "some/key"},
		{op: opGet, key: "big", budget: getReplyBudget},
		{op: opAttach},
		{op: opDelete, key: "gone"},
	} {
		b := encodeRequest(r)
		f.Add(b)
		f.Add(b[:len(b)-1]) // truncated
	}
	f.Add([]byte{})                                  // empty frame
	f.Add([]byte{0, 0, 0})                           // op 0
	f.Add([]byte{opDelete + 1, 0, 0})                // unknown op
	f.Add([]byte{opLookup, 9, 0, 'k'})               // key length past the end
	f.Add([]byte{opGet, 1, 0, 'k', 1, 0, 0})         // budget truncated
	f.Add([]byte{opGet, 1, 0, 'k', 1, 0, 0, 0})      // budget below a header
	f.Add([]byte{opGet, 1, 0, 'k', 0, 1, 0, 0, 'x'}) // bytes past the budget
	f.Add([]byte{opPut, 0xff, 0xff, 'k', 'e', 'y'})  // key length 65535
	f.Fuzz(func(t *testing.T, b []byte) {
		r, ok := decodeRequest(b)
		if !ok {
			return
		}
		if out := encodeRequest(r); !bytes.Equal(out, b) {
			t.Fatalf("%x decodes to %+v, which encodes to %x", b, r, out)
		}
	})
}

// FuzzDecodeReply: a reply frame to any op either fails to decode or
// re-encodes to exactly the bytes it came from; it never panics.
func FuzzDecodeReply(f *testing.F) {
	for _, c := range []struct {
		op byte
		r  reply
	}{
		{opPut, reply{ok: true, name: "kv1-0-g1-1", size: 40, version: 3}},
		{opLookup, reply{ok: true, name: "kv1-0-g1-2", size: valueHdr, version: 1}},
		{opLookup, reply{}},
		{opGet, reply{ok: true, size: 13, version: 2, value: []byte("hello")}},
		{opGet, reply{ok: true, size: 1 << 20, version: 2}},
		{opAttach, reply{ok: true, name: "kvidx1-0-g1-1", heapName: "kvheap1-0-g1-1", gen: 1, nb: 16}},
		{opDelete, reply{ok: true}},
		{opDelete + 1, reply{ok: true, name: "x"}}, // unknown op
	} {
		b := encodeReply(c.op, c.r)
		f.Add(c.op, b)
		f.Add(c.op, b[:len(b)-1]) // truncated
	}
	f.Add(opLookup, []byte{})                                                  // empty frame
	f.Add(opLookup, []byte{0, 0})                                              // not-OK with a tail
	f.Add(opLookup, []byte{2})                                                 // bad status
	f.Add(opAttach, encodeReply(opLookup, reply{ok: true}))                    // attach fields missing
	f.Add(opLookup, append(encodeReply(opLookup, reply{ok: true})[:17], 9, 0)) // name past the end
	f.Fuzz(func(t *testing.T, op byte, b []byte) {
		r, ok := decodeReply(op, b)
		if !ok {
			return
		}
		if out := encodeReply(op, r); !bytes.Equal(out, b) {
			t.Fatalf("op %d: %x decodes to %+v, which encodes to %x", op, b, r, out)
		}
	})
}

// A malformed frame from a tenant client is answered not-OK, and the
// server goes on serving.
func TestMalformedFrameAnsweredNotOK(t *testing.T) {
	cls, dep := testEnv(t, 2)
	st, err := Start(cls, dep, []int{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := st.NewTenantClient(0, 3)
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		if err := k.Put(p, "key", []byte("before")); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		raw := dep.Instance(0).TenantClient(3)
		for _, frame := range [][]byte{
			{},
			{opDelete + 1, 0, 0},
			{opLookup, 40, 0, 't', '3', '/'},
			{opGet, 0, 0, 1, 0},
		} {
			out, err := raw.RPC(p, 1, kvFn, frame, metaReplyBudget)
			if err != nil || !bytes.Equal(out, encodeReply(opLookup, reply{})) {
				t.Errorf("frame %x answered %x, %v; want a not-OK reply", frame, out, err)
			}
		}
		if err := k.Put(p, "key", []byte("after")); err != nil {
			t.Errorf("put after malformed frames: %v", err)
		}
		if v, err := k.Get(p, "key"); err != nil || string(v) != "after" {
			t.Errorf("get after malformed frames = %q, %v", v, err)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}
