package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"ipd/internal/core"
)

// ReplayTail feeds the events of an append-only JSONL decision log (the
// Options.Sink format) with Seq > afterSeq to apply — core.Engine.ApplyEvent,
// the log's one interpreter — and returns how many it applied. Crash recovery
// passes the restored checkpoint's sequence; an offline replay passes 0 and
// a fresh engine built with OnEvent nil. Blank lines are skipped; a decode
// or apply error aborts with the line number, so a journal torn mid-line by
// a crash surfaces loudly instead of being silently half-applied. So does a
// Seq that does not exceed the previous line's, checked on every line,
// including those at or below afterSeq: it means a second run was appended
// to the file, and its events are not a continuation of the first run's.
func ReplayTail(rd io.Reader, afterSeq uint64, apply func(core.Event) error) (int, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line, applied := 0, 0
	prevLine, prevSeq := 0, uint64(0)
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev core.Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return applied, fmt.Errorf("journal: line %d: %v", line, err)
		}
		if prevLine > 0 && ev.Seq <= prevSeq {
			return applied, fmt.Errorf("journal: line %d: seq %d does not follow seq %d of line %d (two runs in one journal?)",
				line, ev.Seq, prevSeq, prevLine)
		}
		prevLine, prevSeq = line, ev.Seq
		if ev.Seq <= afterSeq {
			continue
		}
		if err := apply(ev); err != nil {
			return applied, fmt.Errorf("journal: line %d: %v", line, err)
		}
		applied++
	}
	if err := sc.Err(); err != nil {
		return applied, fmt.Errorf("journal: read: %v", err)
	}
	return applied, nil
}
