package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanLog keeps one span per traced call in memory: the layer it entered,
// when, for how long, and the operation it served. Spans are written out
// once, when the run ends, so recording them costs an append.
type spanLog struct {
	base    time.Time
	spans   []span
	dropped int // spans past maxSpans, counted and not kept
}

type span struct {
	layer string
	start time.Duration // since base
	dur   time.Duration
	op    int64
}

// maxSpans caps one log so a long traced run stays small in memory.
const maxSpans = 1 << 18

func newSpanLog() *spanLog {
	return &spanLog{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (l *spanLog) add(layer string, start time.Time, dur time.Duration, op int64) {
	if l == nil {
		return
	}
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{layer: layer, start: start.Sub(l.base), dur: dur, op: op})
}

// writeSpans stores the spans of every log as JSON lines: layer, start
// and end in ns since the log began, and the operation id. It prints how
// many spans each log kept and dropped.
func writeSpans(path string, logs ...*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i, l := range logs {
		fmt.Printf("span log %d: %d spans written, %d dropped past the cap of %d\n", i, len(l.spans), l.dropped, maxSpans)
		for _, s := range l.spans {
			fmt.Fprintf(bw, "{\"layer\":%q,\"start_ns\":%d,\"end_ns\":%d,\"op\":%d}\n",
				s.layer, s.start.Nanoseconds(), (s.start + s.dur).Nanoseconds(), s.op)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
