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
