package telemetry

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// Meta identifies the run a recording came from; it is written as the
// first JSONL line (or a comment-free CSV is meta-less) so the inspector
// can label its output and size its matrices.
type Meta struct {
	Scenario  string     `json:"scenario"`
	Method    string     `json:"method"`
	Seed      int64      `json:"seed"`
	Nodes     int        `json:"nodes"`
	Landmarks int        `json:"landmarks"`
	Unit      trace.Time `json:"unit"`
	TTL       trace.Time `json:"ttl"`
	Warmup    trace.Time `json:"warmup"`
	// Physics: the engine-config fields the oracle needs to reproduce
	// the run offline (dtnflow-inspect -regret). All omitempty, so
	// recordings from before these fields read back fine; the regret
	// join falls back to the paper defaults when they are zero.
	PacketSize          int64   `json:"packet_size,omitempty"`
	NodeMemory          int64   `json:"node_memory,omitempty"`
	StationMemory       int64   `json:"station_memory,omitempty"`
	LinkRate            float64 `json:"link_rate,omitempty"`
	MaxContactTransfers int     `json:"max_contact_transfers,omitempty"`
	// DisruptArg is the -disrupt argument the run was perturbed with
	// (preset name or spec-file path), so replays can re-derive the
	// perturbed trace the engine actually saw.
	DisruptArg string `json:"disrupt_arg,omitempty"`
	// Disruptions is the run's disruption timeline (empty for a
	// steady-state run); internal/disrupt compiles it from the scenario's
	// spec. Replay analyses segment the recording around these events —
	// see Log.Resilience.
	Disruptions []Disruption `json:"disruptions,omitempty"`
}

// Disruption is one scenario-perturbation event: an outage edge, a link
// fault edge, a churn departure or return, a drift onset, or a flash
// crowd edge. A and B carry kind-specific identifiers (landmark, node,
// or link endpoints).
type Disruption struct {
	T    trace.Time `json:"t"`
	Kind string     `json:"kind"`
	A    int        `json:"a,omitempty"`
	B    int        `json:"b,omitempty"`
}

// jsonlHeader wraps Meta so the first line is distinguishable from an
// event line.
type jsonlHeader struct {
	Meta *Meta `json:"meta"`
}

// WriteJSONL writes the recording as one JSON object per line: a meta
// header first, then every held event in chronological order.
func (r *Recorder) WriteJSONL(w io.Writer, meta Meta) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{Meta: &meta}); err != nil {
		return err
	}
	for _, ev := range r.Events(nil) {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONL writes a loaded (or snapshotted) log back out in the same
// format Recorder.WriteJSONL produces, so analyses can be re-run from a
// re-exported recording bit for bit.
func (l *Log) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{Meta: &l.Meta}); err != nil {
		return err
	}
	for _, ev := range l.Events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// csvHeader is the column set of the CSV export.
var csvHeader = []string{"time", "kind", "hop", "packet", "a", "b", "aux", "value"}

// WriteCSV writes the held events as CSV with a header row, using the
// human-readable kind and hop names.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	row := make([]string, len(csvHeader))
	for _, ev := range r.Events(nil) {
		row[0] = strconv.FormatInt(int64(ev.T), 10)
		row[1] = ev.Kind.String()
		row[2] = ""
		if ev.Kind == EvForwarded {
			row[2] = ev.Hop.String()
		}
		row[3] = strconv.Itoa(int(ev.Pkt))
		row[4] = strconv.Itoa(int(ev.A))
		row[5] = strconv.Itoa(int(ev.B))
		row[6] = strconv.Itoa(int(ev.Aux))
		row[7] = strconv.FormatFloat(ev.V, 'g', -1, 64)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Log is a loaded recording: the run's meta plus its events in
// chronological order. Build one with ReadJSONL or from a live recorder
// via NewLog.
type Log struct {
	Meta   Meta
	Events []Event
}

// NewLog snapshots a live recorder into a Log (no file round-trip).
func NewLog(r *Recorder, meta Meta) *Log {
	return &Log{Meta: meta, Events: r.Events(nil)}
}

// ReadJSONL loads a recording written by WriteJSONL. A missing meta
// header is tolerated (the meta is zero and landmark counts are inferred
// by the analyses). Malformed content is an error, never a panic in a
// later analysis: a negative header landmark count, an event landmark
// index outside [0, Landmarks) when the header gives a count, and a
// delivered delay that is negative, non-finite or past every trace time.
func ReadJSONL(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	log := &Log{}
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			var hdr jsonlHeader
			if err := json.Unmarshal([]byte(line), &hdr); err == nil && hdr.Meta != nil {
				if hdr.Meta.Landmarks < 0 {
					return nil, fmt.Errorf("telemetry: bad meta header: %d landmarks", hdr.Meta.Landmarks)
				}
				log.Meta = *hdr.Meta
				continue
			}
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("telemetry: bad event line %q: %w", line, err)
		}
		if err := ev.check(log.Meta.Landmarks); err != nil {
			return nil, fmt.Errorf("telemetry: bad event line %q: %w", line, err)
		}
		log.Events = append(log.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return log, nil
}

// maxDelay bounds a delivered delay: no simulation time reaches 2^62,
// and a float past 2^63 has no trace.Time value at all.
const maxDelay = float64(1 << 62)

// check validates one loaded event against the recording's landmark
// count (0 = unknown, so indices are not range-checked): every field the
// kind's schema (see Event) defines as a landmark must index one, and a
// delivered delay must be a representable non-negative duration.
func (ev *Event) check(landmarks int) error {
	if ev.Kind == EvDelivered && !(ev.V >= 0 && ev.V < maxDelay) {
		return fmt.Errorf("delivered delay %g out of range", ev.V)
	}
	if landmarks == 0 {
		return nil
	}
	lms := make([]int32, 0, 2)
	switch ev.Kind {
	case EvGenerated, EvAssigned, EvDecision:
		lms = append(lms, ev.A, ev.B)
	case EvQueued, EvDelivered, EvExchange, EvRecompute, EvQueueDepth:
		lms = append(lms, ev.A)
	case EvPredict:
		lms = append(lms, ev.B, ev.Aux)
	case EvForwarded:
		switch ev.Hop {
		case HopUpload:
			lms = append(lms, ev.B)
		case HopDownload:
			lms = append(lms, ev.A)
		}
	}
	for _, lm := range lms {
		if lm < 0 || int(lm) >= landmarks {
			return fmt.Errorf("landmark %d outside [0, %d)", lm, landmarks)
		}
	}
	return nil
}
