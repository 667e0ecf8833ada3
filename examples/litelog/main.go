// LITE-Log (§8.1): a global transaction log that three nodes append to
// with one-sided LITE operations only — LT_fetch-add reserves space,
// LT_write commits — then read back with Tail and Scan, and trim with
// Clean.
package main

import (
	"fmt"
	"log"

	"lite/internal/apps/litelog"
	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
)

const (
	logName = "txlog"
	logSize = 1 << 16
	writers = 2
)

func main() {
	cfg := params.Default()
	cls, err := cluster.New(&cfg, 3, 1<<30)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := lite.Start(cls, lite.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Node 0 hosts the log; nodes 1 and 2 append to it remotely.
	var wg simtime.WaitGroup
	wg.Add(writers)
	cls.GoOn(0, "owner", func(p *simtime.Proc) {
		lg, err := litelog.Create(p, dep.Instance(0).KernelClient(), 0, logSize, logName)
		if err != nil {
			log.Fatal(err)
		}
		for w := 1; w <= writers; w++ {
			w := w
			cls.GoOn(w, "writer", func(p *simtime.Proc) {
				defer wg.Done(p.Env())
				wl, err := litelog.Open(p, dep.Instance(w).KernelClient(), logName, logSize)
				if err != nil {
					log.Fatal(err)
				}
				for k := 0; k < 3; k++ {
					entry := []byte(fmt.Sprintf("node%d-txn%d", w, k))
					if _, err := wl.Append(p, [][]byte{entry}); err != nil {
						log.Fatal(err)
					}
				}
			})
		}
		wg.Wait(p)

		tail, err := lg.Tail(p)
		if err != nil {
			log.Fatal(err)
		}
		var entries []string
		if err := lg.Scan(p, 0, tail, func(e []byte) { entries = append(entries, string(e)) }); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%8v] tail at %d B, %d committed entries: %v\n", p.Now(), tail, len(entries), entries)
		if len(entries) != 3*writers {
			log.Fatalf("scanned %d entries, want %d", len(entries), 3*writers)
		}

		if err := lg.Clean(p, tail); err != nil {
			log.Fatal(err)
		}
		entries = entries[:0]
		if err := lg.Scan(p, 0, tail, func(e []byte) { entries = append(entries, string(e)) }); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%8v] cleaned up to %d B; %d entries left\n", p.Now(), tail, len(entries))
		if len(entries) != 0 {
			log.Fatalf("%d entries survived the cleaner", len(entries))
		}
	})
	if err := cls.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done; simulated time %v\n", cls.Env.Now())
}
