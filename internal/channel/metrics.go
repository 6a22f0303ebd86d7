package channel

import "vab/internal/telemetry"

// Package-level metric handles, nil (free no-ops) until Instrument wires
// them to a registry — same write-once contract as dsp.Instrument. Links
// are built and rebuilt from arbitrary goroutines, but Counter.Inc is
// atomic and nil-safe.
var (
	metLinkBuilds    *telemetry.Counter
	metLinkRebuilds  *telemetry.Counter
	metWorkspaceGrow *telemetry.Counter
)

// Instrument enables channel-layer counters against reg. Call once at
// startup, before links are built concurrently.
func Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	metLinkBuilds = reg.Counter("vab_channel_link_builds_total",
		"Links constructed from scratch by channel.New.")
	metLinkRebuilds = reg.Counter("vab_channel_link_rebuilds_total",
		"Incremental geometry rebuilds that reused an existing Link.")
	metWorkspaceGrow = reg.Counter("vab_channel_workspace_grows_total",
		"Link scratch buffer growths; flat after warmup in steady state.")
}
