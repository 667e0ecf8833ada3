package bench

import (
	"strings"
	"testing"
	"time"
)

// The shape predicates pass on the recorded figures and fail, naming
// the broken clause, when one clause is broken.

func TestFig13Shape(t *testing.T) {
	rec := func() []fig13Row {
		return []fig13Row{
			{1, 22540, 22570, 27610},
			{2, 42490, 42460, 31040},
			{4, 82260, 82240, 32750},
			{8, 162200, 161790, 33630},
		}
	}
	if err := fig13Shape(rec()); err != nil {
		t.Fatalf("recorded fig13: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		breakIt    func([]fig13Row)
	}{
		{"LITE above HERD at 2x", "at 2x LITE", func(r []fig13Row) { r[1].lite = r[1].herd }},
		{"LITE above FaSST at 8x", "at 8x LITE", func(r []fig13Row) { r[3].lite = r[3].fasst + 1 }},
		{"HERD flat from 2x to 4x", "from 2x to 4x", func(r []fig13Row) { r[2].herd = r[1].herd }},
		{"FaSST falls from 4x to 8x", "from 4x to 8x", func(r []fig13Row) { r[3].fasst = r[2].fasst - 1 }},
	} {
		rows := rec()
		tc.breakIt(rows)
		if err := fig13Shape(rows); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	// LITE above the polling designs at 1x is the paper's heavy-load
	// tie, not a broken shape.
	rows := rec()
	rows[0].lite = 2 * rows[0].herd
	if err := fig13Shape(rows); err != nil {
		t.Errorf("LITE above HERD at 1x: %v, want no error", err)
	}
}

func TestTabCPUShape(t *testing.T) {
	const lite, herd, fasst = 16470 * time.Microsecond, 1002520 * time.Microsecond, 1002540 * time.Microsecond
	if err := tabCPUShape(lite, herd, fasst); err != nil {
		t.Fatalf("recorded tab-cpu: %v", err)
	}
	for _, tc := range []struct {
		name              string
		lite, herd, fasst time.Duration
		want              string
	}{
		{"LITE equals HERD", herd, herd, fasst, "not below"},
		{"LITE above FaSST", lite, herd, lite - 1, "not below"},
		{"FaSST twice HERD", lite, herd, 2 * herd, "differ by more than 10%"},
	} {
		if err := tabCPUShape(tc.lite, tc.herd, tc.fasst); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

func TestAblWindowShape(t *testing.T) {
	rec := func() []windowRow {
		return []windowRow{
			{1000, 6610, 13520},
			{4000, 2140, 22760},
			{8000, 2110, 34860},
			{25000, 2110, 86280},
			{100000, 2110, 191500},
		}
	}
	if err := ablWindowShape(rec()); err != nil {
		t.Fatalf("recorded abl-window: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		breakIt    func([]windowRow)
	}{
		{"latency rises at 25us", "latency rises from 2.11 us at a 8.00 us window", func(r []windowRow) { r[3].lat = r[2].lat + 1 }},
		{"CPU flat from 1 to 4us", "CPU per request does not rise from 13.52 us at a 1.00 us window", func(r []windowRow) { r[1].cpu = r[0].cpu }},
		{"CPU falls at 100us", "does not rise from 86.28 us", func(r []windowRow) { r[4].cpu = r[3].cpu - 1 }},
	} {
		rows := rec()
		tc.breakIt(rows)
		if err := ablWindowShape(rows); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	rec := func() []fig4Row {
		return []fig4Row{
			{10, 1390, 1510},
			{100, 1400, 1510},
			{1000, 2940, 1510},
			{10000, 3950, 1510},
			{50000, 4360, 1510},
		}
	}
	if err := fig4Shape(rec()); err != nil {
		t.Fatalf("recorded fig4: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		breakIt    func([]fig4Row)
	}{
		{"LITE 6% slower at 50000 MRs", "LITE writes in 1.60 us at 50000 MRs", func(r []fig4Row) { r[4].lite = 1600 }},
		{"LITE 6% faster at 1000 MRs", "at 1000 MRs, not within 5%", func(r []fig4Row) { r[2].lite = 1419 }},
		{"Verbs flat to 1000 MRs", "Verbs writes in 2.09 us at 1000 MRs, under 1.5x its 1.40 us", func(r []fig4Row) { r[2].verbs = 2090 }},
	} {
		rows := rec()
		tc.breakIt(rows)
		if err := fig4Shape(rows); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

func TestFig14Shape(t *testing.T) {
	rec := func() []fig14Row {
		return []fig14Row{
			{2, 3.215, 1.850},
			{4, 3.035, 1.785},
			{6, 3.007, 1.767},
			{8, 2.996, 1.778},
		}
	}
	if err := fig14Shape(rec()); err != nil {
		t.Fatalf("recorded fig14: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		breakIt    func([]fig14Row)
	}{
		{"LT_write per node falls 20%", "LT_write runs 2.57 req/us per node at 8 nodes, not within 10% of 3.21 at 2", func(r []fig14Row) { r[3].write = 2.572 }},
		{"LT_RPC per node rises 20%", "LT_RPC runs 2.22 req/us per node at 8 nodes", func(r []fig14Row) { r[3].rpc = 2.22 }},
	} {
		rows := rec()
		tc.breakIt(rows)
		if err := fig14Shape(rows); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	rec := func() []fig6Row {
		return []fig6Row{
			{8, 1360, 1480, 1710, 18430},
			{64, 1390, 1510, 1740, 18500},
			{512, 1590, 1710, 1940, 19110},
			{4096, 3250, 3370, 3600, 23940},
			{32768, 16440, 16560, 16790, 62620},
		}
	}
	if err := fig6Shape(rec()); err != nil {
		t.Fatalf("recorded fig6: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		breakIt    func([]fig6Row)
	}{
		{"LITE KL 0.3 us above Verbs at 512 B", "at 512 B LITE KL writes in 1.89 us, not within 0.2 us of Verbs 1.59", func(r []fig6Row) { r[2].kl = 1890 }},
		{"LITE KL 0.3 us below Verbs at 32 KB", "at 32768 B LITE KL", func(r []fig6Row) { r[4].kl = 16140 }},
		{"LITE user equals LITE KL at 8 B", "at 8 B LITE user writes in 1.48 us, not above LITE KL", func(r []fig6Row) { r[0].user = r[0].kl }},
		{"TCP/IP under 5x Verbs at 4 KB", "at 4096 B TCP/IP takes 16.00 us, under 5x Verbs 3.25", func(r []fig6Row) { r[3].tcp = 16000 }},
	} {
		rows := rec()
		tc.breakIt(rows)
		if err := fig6Shape(rows); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	// Past 4 KB the wire dominates both stacks, so TCP/IP need not be 5x.
	rows := rec()
	rows[4].tcp = 2 * rows[4].verbs
	if err := fig6Shape(rows); err != nil {
		t.Errorf("TCP/IP 2x Verbs at 32 KB: %v, want no error", err)
	}
}

func TestFig7Shape(t *testing.T) {
	const link = 4.2e9
	rec := func() []fig7Row {
		return []fig7Row{
			{1 << 10, 0.43e9, 0.53e9, 3.61e9, 4.08e9, 0.11e9},
			{4 << 10, 1.04e9, 1.22e9, 4.16708e9, 4.16687e9, 0.36e9},
			{16 << 10, 1.72e9, 1.82e9, 4.19e9, 4.19e9, 0.90e9},
			{64 << 10, 2.07e9, 2.07e9, 4.20e9, 4.20e9, 1.30e9},
		}
	}
	if err := fig7Shape(rec(), link); err != nil {
		t.Fatalf("recorded fig7: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		breakIt    func([]fig7Row)
	}{
		{"LITE-8 0.01 GB/s below Verbs-8 at 16 KB", "at 16 KB LITE-8 writes 4.180 GB/s, below Verbs-8 4.190", func(r []fig7Row) { r[2].lite8 = 4.18e9 }},
		{"LITE-8 6% under the link at 64 KB", "at 64 KB LITE-8 writes 3.94 GB/s, not within 5% of the 4.20 GB/s link", func(r []fig7Row) { r[3].lite8, r[3].verbs8 = 3.94e9, 3.94e9 }},
		{"TCP/IP above Verbs-1 at 1 KB", "at 1 KB TCP/IP writes 0.50 GB/s, not below every RDMA stack (slowest 0.43)", func(r []fig7Row) { r[0].tcpip = 0.50e9 }},
	} {
		rows := rec()
		tc.breakIt(rows)
		if err := fig7Shape(rows, link); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

func TestFig15Shape(t *testing.T) {
	rec := func() []fig15Row {
		return []fig15Row{
			{"LITE-Log", 0.64, 0.42, 0.10},
			{"LITE-Graph", 0.62, 0.56, 0.44},
		}
	}
	if err := fig15Shape(rec()); err != nil {
		t.Fatalf("recorded fig15: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		breakIt    func([]fig15Row)
	}{
		// Overlapping the source DMA, the wire and the sink DMA while
		// still booking whole messages gave this order.
		{"HW-Sep above SW-Pri for LITE-Graph", "LITE-Graph runs at 0.653 with SW-Pri, 0.797 with HW-Sep", func(r []fig15Row) { r[1].swPri, r[1].hwSep = 0.653, 0.797 }},
		{"No QoS above HW-Sep for LITE-Log", "LITE-Log runs at 0.640 with SW-Pri, 0.420 with HW-Sep and 0.430 with no QoS", func(r []fig15Row) { r[0].noQoS = 0.43 }},
	} {
		rows := rec()
		tc.breakIt(rows)
		if err := fig15Shape(rows); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

func TestFig18Shape(t *testing.T) {
	const ms = time.Millisecond
	rec := func() []fig18Row {
		return []fig18Row{
			{2, 47 * ms, 25 * ms, 29 * ms, 351 * ms},
			{4, 47 * ms, 26 * ms, 29 * ms, 240 * ms},
			{8, 47 * ms, 26 * ms, 29 * ms, 184 * ms},
		}
	}
	if err := fig18Shape(rec()); err != nil {
		t.Fatalf("recorded fig18: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		breakIt    func([]fig18Row)
	}{
		{"Hadoop ties LITE-MR at 8 nodes", "at 8 nodes LITE-MR takes 29.00 ms, not below Hadoop 29.00", func(r []fig18Row) { r[2].hadoopTotal = r[2].liteTotal }},
		{"LITE-MR's map+reduce above Phoenix's at 4 nodes", "at 4 nodes LITE-MR maps and reduces in 48.00 ms, not below Phoenix 47.00", func(r []fig18Row) { r[1].liteMR = 48 * ms }},
	} {
		rows := rec()
		tc.breakIt(rows)
		if err := fig18Shape(rows); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	// The paper's 4.3-5.3x Hadoop lead is a band this model overshoots
	// (6-12x); a 2x lead keeps the ordering.
	rows := rec()
	rows[0].hadoopTotal = 2 * rows[0].liteTotal
	if err := fig18Shape(rows); err != nil {
		t.Errorf("Hadoop 2x LITE-MR: %v, want no error", err)
	}
}

func TestFig19Shape(t *testing.T) {
	rec := func() []fig19Row {
		return []fig19Row{
			{4, 4880000, 13880000, 8530000, 25210000},
			{7, 3500000, 13500000, 8080000, 26270000},
		}
	}
	if err := fig19Shape(rec()); err != nil {
		t.Fatalf("recorded fig19: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		breakIt    func([]fig19Row)
	}{
		{"Grappa ahead of LITE-Graph at 4 nodes", "at 4 nodes LITE-Graph takes 4.88 ms, Grappa 4.00 ms", func(r []fig19Row) { r[0].grappa = 4000000 }},
		{"Grappa behind PowerGraph at 7 nodes", "at 7 nodes LITE-Graph takes 3.50 ms, Grappa 27.00 ms and PowerGraph 26.27 ms", func(r []fig19Row) { r[1].grappa = 27000000 }},
		{"Graph-DSM ties LITE-Graph at 7 nodes", "Graph-DSM 3.50 ms", func(r []fig19Row) { r[1].dsm = r[1].lite }},
		{"Graph-DSM behind PowerGraph at 4 nodes", "at 4 nodes LITE-Graph takes 4.88 ms, Graph-DSM 30.00 ms", func(r []fig19Row) { r[0].dsm = 30000000 }},
	} {
		rows := rec()
		tc.breakIt(rows)
		if err := fig19Shape(rows); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
