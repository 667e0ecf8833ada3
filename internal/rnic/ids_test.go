package rnic

import (
	"testing"
	"time"

	"lite/internal/simtime"
)

// TestOutOfRangeIDs pins what a lookup by an id that names nothing
// returns: a protection key of 0, past the last one handed out, or of
// a deregistered region; a QPN of 0, negative or past the last QP; a
// node with no NIC. The NIC's tables are slices indexed by those ids,
// so each case must read as a missing entry (a BAD_KEY nack, a
// transport timeout, a dropped datagram, nil), never panic.
func TestOutOfRangeIDs(t *testing.T) {
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	gone := c.physMR(t, 1, 4096, allPerm)
	if err := c.nic[1].DeregisterMR(gone); err != nil {
		t.Fatal(err)
	}

	if n := c.reg.NIC(-1); n != nil {
		t.Errorf("NIC(-1) = %v, want nil", n)
	}
	if n := c.reg.NIC(len(c.nic)); n != nil {
		t.Errorf("NIC(%d) = %v, want nil", len(c.nic), n)
	}
	if _, err := c.reg.NewNIC(-1, c.nic[0].Mem()); err == nil {
		t.Error("NewNIC(-1) succeeded")
	}
	if err := c.nic[1].DeregisterMR(gone); err != ErrBadMR {
		t.Errorf("second DeregisterMR = %v, want ErrBadMR", err)
	}
	if got := c.nic[1].MRCount(); got != 1 {
		t.Errorf("MRCount = %d, want 1", got)
	}

	pastKey := dst.Key() + 100
	for _, key := range []uint32{0, pastKey, 1 << 31, gone.Key()} {
		if mr, ok := c.nic[1].LookupMR(key); ok || mr != nil {
			t.Errorf("LookupMR(%d) = %v, %v; want nil, false", key, mr, ok)
		}
	}

	badKey := func(kind OpKind, key uint32) WR {
		return WR{Kind: kind, Signaled: true, LocalMR: src, Len: 8, RemoteKey: key}
	}
	pastQPN := c.nic[1].QPCount() + 5
	c.env.Go("prober", func(p *simtime.Proc) {
		qa, _ := c.rcPair(0, 1)
		for _, key := range []uint32{0, pastKey, 1 << 31, gone.Key()} {
			for _, kind := range []OpKind{OpWrite, OpRead, OpFetchAdd} {
				if err := c.nic[0].PostSend(p.Now(), qa, badKey(kind, key)); err != nil {
					t.Fatalf("%v key %d: PostSend = %v", kind, key, err)
				}
				if cqe := qa.SendCQ().Poll(p); cqe.Status != StatusBadKey {
					t.Errorf("%v key %d: status %v, want BAD_KEY", kind, key, cqe.Status)
				}
			}
		}

		// An RC QP connected to a QPN that names nothing times out.
		for _, qpn := range []int{0, -1, pastQPN} {
			q := c.nic[0].CreateQP(RC, c.nic[0].CreateCQ(), c.nic[0].CreateCQ())
			q.Connect(1, qpn)
			for _, kind := range []OpKind{OpWrite, OpRead, OpFetchAdd} {
				wr := badKey(kind, dst.Key())
				if err := c.nic[0].PostSend(p.Now(), q, wr); err != nil {
					t.Fatalf("%v to qpn %d: PostSend = %v", kind, qpn, err)
				}
				if cqe := q.SendCQ().Poll(p); cqe.Status != StatusTimeout {
					t.Errorf("%v to qpn %d: status %v, want TIMEOUT", kind, qpn, cqe.Status)
				}
			}
		}

		// A datagram to a QPN that names nothing completes locally and
		// vanishes, as does one to a node with no NIC.
		ua := c.nic[0].CreateQP(UD, c.nic[0].CreateCQ(), c.nic[0].CreateCQ())
		for _, dest := range []struct{ node, qpn int }{{1, 0}, {1, -1}, {1, pastQPN}, {-1, 1}, {len(c.nic), 1}} {
			wr := WR{Kind: OpSend, Signaled: true, LocalMR: src, Len: 8, DestNode: dest.node, DestQPN: dest.qpn}
			if err := c.nic[0].PostSend(p.Now(), ua, wr); err != nil {
				t.Fatalf("UD send to %+v: PostSend = %v", dest, err)
			}
			if cqe := ua.SendCQ().Poll(p); cqe.Status != StatusOK {
				t.Errorf("UD send to %+v: status %v, want OK", dest, cqe.Status)
			}
		}
		p.Sleep(10 * time.Microsecond)
	})
	c.run(t)
}
