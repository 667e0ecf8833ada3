package kvstore

import "encoding/binary"

// Metadata ops; the frames they travel in are laid out in the package
// doc. Op 0 is none: a malformed or denied request is answered not-OK.
const (
	opPut byte = iota + 1
	opLookup
	opGet
	opAttach
	opDelete
)

const (
	replyHdr        = 1 + 8 + 8 + 2 // an OK reply up to its LMR name
	metaReplyBudget = 512           // every reply's budget but a "get"'s
	getReplyBudget  = 8192          // a "get"'s first budget
)

type request struct {
	op     byte
	key    string
	value  []byte
	budget int64 // "get" only
}

type reply struct {
	ok      bool
	name    string
	size    int64 // the value LMR's length, version header included
	version uint64
	// "attach" only: the index generation whose index LMR is name.
	heapName string
	gen      uint64
	nb       int64
	value    []byte // "get" only
}

// getReplyLen is the length of a "get" reply carrying a size-byte LMR.
func getReplyLen(size int64) int64 { return replyHdr + size - valueHdr }

func encodeRequest(r request) []byte {
	b := appendStr(append(make([]byte, 0, 7+len(r.key)+len(r.value)), r.op), r.key)
	if r.op == opGet {
		return binary.LittleEndian.AppendUint32(b, uint32(r.budget))
	}
	return append(b, r.value...)
}

// decodeRequest parses a request; the value aliases b. A "get" budget
// must hold at least a reply header.
func decodeRequest(b []byte) (r request, ok bool) {
	if len(b) == 0 || b[0] < opPut || b[0] > opDelete {
		return r, false
	}
	r.op = b[0]
	if r.key, r.value, ok = takeStr(b[1:]); !ok || r.op != opGet {
		return r, ok
	}
	if len(r.value) != 4 {
		return r, false
	}
	r.budget, r.value = int64(binary.LittleEndian.Uint32(r.value)), nil
	return r, r.budget >= replyHdr
}

func encodeReply(op byte, r reply) []byte {
	if !r.ok {
		return []byte{0}
	}
	b := append(make([]byte, 0, replyHdr+len(r.name)+len(r.value)+16+len(r.heapName)), 1)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.size))
	b = appendStr(binary.LittleEndian.AppendUint64(b, r.version), r.name)
	if op == opAttach {
		b = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(b, r.gen), uint64(r.nb))
		return append(b, r.heapName...)
	}
	return append(b, r.value...)
}

// decodeReply parses the reply to op; the value aliases b.
func decodeReply(op byte, b []byte) (r reply, ok bool) {
	if len(b) == 1 && b[0] == 0 {
		return r, true
	}
	if len(b) < replyHdr || b[0] != 1 {
		return r, false
	}
	r.ok, r.size, r.version = true, int64(binary.LittleEndian.Uint64(b[1:])), binary.LittleEndian.Uint64(b[9:])
	if r.name, b, ok = takeStr(b[17:]); !ok {
		return r, false
	}
	switch {
	case op == opGet:
		r.value = b
	case op != opAttach:
		ok = len(b) == 0
	case len(b) < 16:
		ok = false
	default:
		r.gen, r.nb = binary.LittleEndian.Uint64(b), int64(binary.LittleEndian.Uint64(b[8:]))
		r.heapName = string(b[16:])
	}
	return r, ok
}

// appendStr appends s behind its 2-byte length. Keys longer than that
// can say are refused before they are framed (Client.roundTrip).
func appendStr(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint16(b, uint16(len(s))), s...)
}

// takeStr splits a length-prefixed string off the front of b.
func takeStr(b []byte) (string, []byte, bool) {
	if len(b) < 2 || 2+int(binary.LittleEndian.Uint16(b)) > len(b) {
		return "", nil, false
	}
	n := 2 + int(binary.LittleEndian.Uint16(b))
	return string(b[2:n]), b[n:], true
}
