package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestUpdateJSONKeepsOtherEntries: recording some experiments into an
// existing feed replaces their entries in place, appends new ids, and
// leaves every other entry byte for byte, down to a field this build
// does not know. A missing feed is written afresh.
func TestUpdateJSONKeepsOtherEntries(t *testing.T) {
	entry := func(id, row string) JSONResult {
		tab := &Table{ID: id, Title: id, Header: []string{"x"}, Rows: [][]string{{row}}, Virtual: 1000, Events: 7, EventsPerSec: 1.0 / 3}
		return NewJSONResult(id, tab, 5, nil)
	}
	// legacy marks entry c the way an older build might have written it.
	legacy := func(data []byte) []byte {
		return bytes.Replace(data, []byte(`"id": "c",`), []byte("\"id\": \"c\",\n      \"legacy\": \"kept\","), 1)
	}
	// write records results into a feed that does not exist yet.
	write := func(path string, results ...JSONResult) []byte {
		t.Helper()
		if err := UpdateJSON(path, results); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return legacy(data)
	}
	dir := t.TempDir()
	feed := filepath.Join(dir, "feed.json")
	first := write(feed, entry("a", "1"), entry("b", "1"), entry("c", "1"))
	rep, err := ReadJSON(feed)
	if err != nil || len(rep.Results) != 3 || rep.Results[2].ID != "c" {
		t.Fatalf("a missing feed is written afresh: %+v, %v", rep, err)
	}
	if err := os.WriteFile(feed, first, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := UpdateJSON(feed, []JSONResult{entry("d", "2"), entry("b", "2")}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(feed)
	if err != nil {
		t.Fatal(err)
	}
	want := write(filepath.Join(dir, "want.json"), entry("a", "1"), entry("b", "2"), entry("c", "1"), entry("d", "2"))
	if !bytes.Equal(got, want) {
		t.Errorf("updated feed:\n%s\nwant:\n%s", got, want)
	}
}
