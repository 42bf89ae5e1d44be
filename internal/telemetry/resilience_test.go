package telemetry

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

func TestResilienceWithoutTimeline(t *testing.T) {
	log := &Log{Events: []Event{{T: 5, Kind: EvGenerated}}}
	if got := log.Resilience(10); got != nil {
		t.Errorf("Resilience without disruptions = %+v, want nil", got)
	}
}

// TestResilienceWindows hand-places events around two disruptions and
// checks the before/during tallies, the recompute settle time and drift,
// and the mean delay.
func TestResilienceWindows(t *testing.T) {
	log := &Log{
		Meta: Meta{Disruptions: []Disruption{
			{T: 100, Kind: "outage-start", A: 3},
			{T: 500, Kind: "outage-end", A: 3},
		}},
		Events: []Event{
			{T: 80, Kind: EvGenerated},
			{T: 90, Kind: EvDelivered, V: 40},
			{T: 95, Kind: EvForwarded},
			{T: 100, Kind: EvRecompute, V: 0.5},
			{T: 110, Kind: EvDropped},
			{T: 120, Kind: EvDelivered, V: 10},
			{T: 130, Kind: EvDelivered, V: 30},
			{T: 135, Kind: EvRecompute, V: 0.25},
			{T: 149, Kind: EvQueued}, // counted nowhere
			{T: 150, Kind: EvGenerated},
		},
	}
	got := log.Resilience(50)
	want := []DisruptionImpact{
		{
			Disruption: log.Meta.Disruptions[0],
			Recomputes: 2, Settle: 35, TableDrift: 0.75,
			Before: WindowStats{Generated: 1, Delivered: 1, Forwarded: 1, MeanDelay: 40},
			During: WindowStats{Delivered: 2, Dropped: 1, MeanDelay: 20},
		},
		{Disruption: log.Meta.Disruptions[1], Settle: -1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Resilience(50):\ngot  %+v\nwant %+v", got, want)
	}
}

// TestResilienceDefaultWindow checks a non-positive window falls back to
// the recording's unit, then to one day.
func TestResilienceDefaultWindow(t *testing.T) {
	events := []Event{{T: 1000 + trace.Hour, Kind: EvGenerated}}
	d := []Disruption{{T: 1000, Kind: "drift"}}

	hourly := &Log{Meta: Meta{Disruptions: d, Unit: trace.Hour}, Events: events}
	if got := hourly.Resilience(0)[0].During.Generated; got != 0 {
		t.Errorf("unit window: generated = %d, want 0 (event at the window's end)", got)
	}
	daily := &Log{Meta: Meta{Disruptions: d}, Events: events}
	if got := daily.Resilience(-1)[0].During.Generated; got != 1 {
		t.Errorf("day window: generated = %d, want 1", got)
	}
}
