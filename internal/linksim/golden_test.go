package linksim

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden campaign transcript in testdata/")

// TestFleetGoldenCampaign byte-compares a seeded 50 000-node × 12-cycle
// chaos campaign (no hero links) with the committed transcript at one and
// two workers. Re-probes start at cycle 4, so the campaign runs through
// several probe waves, including cycles where failed re-probes and newly
// quarantined nodes share a due cycle: any change to the order or
// multiset of due probes shows up here.
func TestFleetGoldenCampaign(t *testing.T) {
	const nodes, seed, cycles = 50_000, 31, 12
	path := filepath.Join("testdata", "chaos_campaign_50k_c12.txt")
	serial := runCampaign(t, nodes, seed, 1, cycles)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(serial, " pr0 ") == cycles {
		t.Fatal("campaign ran no re-probe wave; the golden no longer covers the probe calendar")
	}
	for _, w := range []int{1, 2} {
		got := serial
		if w != 1 {
			got = runCampaign(t, nodes, seed, w, cycles)
		}
		if got != string(want) {
			t.Fatalf("workers=%d transcript differs from %s:\n--- got\n%s--- want\n%s", w, path, got, want)
		}
	}
}
