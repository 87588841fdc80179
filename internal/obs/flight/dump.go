package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
)

// Dump-file format (JSONL, one record per line):
//
//	{"type":"flight.header","reason":...,"t":...,"cats":K,"depth":D}
//	{"type":"flight.category","name":"progress","total":T,"kept":M}
//	{"type":"flight.event","cat":"progress","seq":N,"ev":{...obs.Event...}}
//	... (M event lines per category, seq strictly increasing)
//
// Categories are sorted by name; events within a category are oldest
// first. total counts every event the category ever saw, so total-kept is
// the number evicted by the ring — the dump states its own truncation.

// Header is the dump's first line.
type Header struct {
	Type   string    `json:"type"` // "flight.header"
	Reason string    `json:"reason"`
	Time   time.Time `json:"t"`
	Cats   int       `json:"cats"`
	Depth  int       `json:"depth"`
}

// Category introduces one category's event block.
type Category struct {
	Type  string `json:"type"` // "flight.category"
	Name  string `json:"name"`
	Total int64  `json:"total"`
	Kept  int    `json:"kept"`
}

// Line is one retained event with its category and sequence number.
type Line struct {
	Type string    `json:"type"` // "flight.event"
	Cat  string    `json:"cat"`
	Seq  int64     `json:"seq"`
	Ev   obs.Event `json:"ev"`
}

// Record-type tags.
const (
	TypeHeader   = "flight.header"
	TypeCategory = "flight.category"
	TypeEvent    = "flight.event"
)

// WriteTo dumps the recorder's retained events to w. Safe to call while
// emitters are still running: racing slots are skipped, never torn.
func (r *Recorder) WriteTo(w io.Writer, reason string) error {
	if r == nil {
		return nil
	}
	cats := *r.cats.Load()
	names := make([]string, 0, len(cats))
	for n := range cats {
		names = append(names, n)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(Header{Type: TypeHeader, Reason: reason, Time: time.Now(), Cats: len(names), Depth: r.depth}); err != nil {
		return err
	}
	for _, n := range names {
		recs, total := cats[n].snapshot()
		if err := enc.Encode(Category{Type: TypeCategory, Name: n, Total: total, Kept: len(recs)}); err != nil {
			return err
		}
		for _, rec := range recs {
			if err := enc.Encode(Line{Type: TypeEvent, Cat: n, Seq: rec.seq, Ev: rec.ev}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// DumpFile writes the dump to path through durable.WriteFile (the
// trace.WriteFile discipline), so a crash mid-dump never leaves a
// truncated artifact under the final name. Only the first DumpFile of a
// recorder's lifetime writes; later calls (a fault followed by the
// cancellation that tears the run down, or a panic unwinding through
// stacked handlers) are no-ops returning nil, so the artifact always
// reflects the first trigger.
func (r *Recorder) DumpFile(path, reason string) error {
	if r == nil || path == "" {
		return nil
	}
	if !r.dumped.CompareAndSwap(false, true) {
		return nil
	}
	return durable.WriteFile(path, func(w io.Writer) error { return r.WriteTo(w, reason) })
}

// knownEventTypes mirrors the obs event vocabulary for validation.
var knownEventTypes = map[string]bool{
	obs.EventSpanOpen:  true,
	obs.EventSpanClose: true,
	obs.EventProgress:  true,
	obs.EventWarn:      true,
	obs.EventDispatch:  true,
}

// Validate checks a flight dump's structural invariants and returns the
// violations found (up to 20) plus a one-line summary. Checked: the
// header leads and declares the category count; every category block's
// kept count matches its event lines and never exceeds the ring depth or
// the category's total; event lines carry their block's category, a known
// obs event type equal to the category, and strictly increasing sequence
// numbers. cmd/tracecheck fronts this for CI.
func Validate(rd io.Reader) (problems []string, summary string, err error) {
	flagProblem := func(format string, args ...any) {
		if len(problems) < 20 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)

	var hdr Header
	var cats, events, lines int
	var cur *Category   // category block being read
	var curSeen int     // event lines seen in the current block
	var lastSeq int64   // last seq in the current block
	var lastName string // previous category name (sorted-order check)

	endBlock := func() {
		if cur != nil && curSeen != cur.Kept {
			flagProblem("category %q declares kept=%d but has %d event lines", cur.Name, cur.Kept, curSeen)
		}
		cur = nil
	}

	for sc.Scan() {
		lines++
		line := sc.Bytes()
		if len(line) == 0 {
			flagProblem("line %d: empty", lines)
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if jerr := json.Unmarshal(line, &probe); jerr != nil {
			flagProblem("line %d: not valid JSON: %v", lines, jerr)
			continue
		}
		switch probe.Type {
		case TypeHeader:
			if lines != 1 {
				flagProblem("line %d: header not on line 1", lines)
				continue
			}
			if jerr := json.Unmarshal(line, &hdr); jerr != nil {
				flagProblem("line 1: bad header: %v", jerr)
			}
			if hdr.Depth <= 0 {
				flagProblem("line 1: header depth %d not positive", hdr.Depth)
			}
		case TypeCategory:
			if lines == 1 {
				flagProblem("line 1: dump does not start with a flight.header")
			}
			endBlock()
			var c Category
			if jerr := json.Unmarshal(line, &c); jerr != nil {
				flagProblem("line %d: bad category: %v", lines, jerr)
				continue
			}
			cats++
			if c.Name <= lastName && lastName != "" {
				flagProblem("line %d: category %q out of sorted order (after %q)", lines, c.Name, lastName)
			}
			lastName = c.Name
			if hdr.Depth > 0 && c.Kept > hdr.Depth {
				flagProblem("line %d: category %q kept %d exceeds ring depth %d", lines, c.Name, c.Kept, hdr.Depth)
			}
			if int64(c.Kept) > c.Total {
				flagProblem("line %d: category %q kept %d exceeds total %d", lines, c.Name, c.Kept, c.Total)
			}
			cur = &c
			curSeen = 0
			lastSeq = -1
		case TypeEvent:
			var l Line
			if jerr := json.Unmarshal(line, &l); jerr != nil {
				flagProblem("line %d: bad event: %v", lines, jerr)
				continue
			}
			events++
			if cur == nil {
				flagProblem("line %d: event outside a category block", lines)
				continue
			}
			curSeen++
			if l.Cat != cur.Name {
				flagProblem("line %d: event category %q inside block %q", lines, l.Cat, cur.Name)
			}
			if !knownEventTypes[l.Ev.Type] {
				flagProblem("line %d: unknown event type %q", lines, l.Ev.Type)
			} else if l.Ev.Type != cur.Name {
				flagProblem("line %d: event type %q filed under category %q", lines, l.Ev.Type, cur.Name)
			}
			if l.Seq <= lastSeq {
				flagProblem("line %d: seq %d not increasing (prev %d)", lines, l.Seq, lastSeq)
			}
			lastSeq = l.Seq
			if l.Ev.Time.IsZero() {
				flagProblem("line %d: event missing timestamp", lines)
			}
		default:
			flagProblem("line %d: unknown record type %q", lines, probe.Type)
		}
	}
	if serr := sc.Err(); serr != nil {
		return nil, "", serr
	}
	endBlock()
	if lines == 0 {
		flagProblem("empty dump")
	}
	if hdr.Cats != cats && hdr.Type == TypeHeader {
		flagProblem("header declares %d categories, dump has %d", hdr.Cats, cats)
	}
	summary = fmt.Sprintf("%d lines — flight dump (reason %q), %d categories, %d events, %d problems",
		lines, hdr.Reason, cats, events, len(problems))
	return problems, summary, nil
}
