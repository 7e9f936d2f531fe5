package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark itself. Spans of one operation share Req; Parent is
// the index of the enclosing span in the same recorder (-1 for a
// root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// recorder keeps spans in memory; a full recorder drops further spans
// and counts them. Times are nanoseconds since the recorder's epoch.
// A recorder is safe for concurrent use; the RMI loop still gives each
// client its own, so clients never share its lock.
type recorder struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
}

// maxSpans bounds one recorder's memory (about 3 MB at this size).
const maxSpans = 1 << 16

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, maxSpans)}
}

// add records a finished span and returns its index (-1 if dropped).
func (r *recorder) add(name string, start, end time.Time, parent int32, req int64) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{name, start.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds(), parent, req})
	return int32(len(r.spans) - 1)
}

// durations returns the durations of the recorded spans named name.
func durations(recs []*recorder, name string) []int64 {
	var out []int64
	for _, r := range recs {
		for _, s := range r.spans {
			if s.Name == name {
				out = append(out, s.End-s.Start)
			}
		}
	}
	return out
}

// writeSpans dumps every recorder as JSON lines, one span per line,
// each recorder's spans tagged with its index, under dir.
func writeSpans(dir, file string, recs []*recorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Recorder int `json:"recorder"`
		span
	}
	var dropped int64
	for i, r := range recs {
		dropped += r.dropped
		for _, s := range r.spans {
			if err := enc.Encode(line{i, s}); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if dropped > 0 {
		return fmt.Sprintf("%s (%d spans past the in-memory cap dropped)", path, dropped), nil
	}
	return path, nil
}
