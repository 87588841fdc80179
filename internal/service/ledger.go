package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/durable"
)

// The job ledger is the daemon's durable memory: an append-only JSONL
// file where every line is {"crc":<crc32-IEEE of rec bytes>,"rec":{...}}
// — the same frame-and-checksum discipline as the corpus segment format,
// applied to job lifecycle records. The first record is a typed header;
// each subsequent record is one state transition. Appends fsync before
// returning, so an acknowledged transition survives a crash. On restart
// the daemon replays the ledger: jobs whose last state is non-terminal
// (queued/running) were interrupted by the crash and are requeued from
// the spec carried on their queued record.
const (
	LedgerType    = "statsymd.ledger"
	LedgerVersion = 1
	// LedgerName is the ledger's filename inside the daemon data dir.
	LedgerName = "jobs.ledger"
)

// ledgerHeader is the first record of every ledger file.
type ledgerHeader struct {
	Type    string `json:"type"`
	Version int    `json:"v"`
}

// LedgerRecord is one job lifecycle transition. Queued records carry the
// full spec (that is what recovery re-runs); done records carry the
// detection digest so a sealed ledger documents outcomes.
type LedgerRecord struct {
	Type    string   `json:"type,omitempty"` // header only
	Version int      `json:"v,omitempty"`    // header only
	Time    string   `json:"time,omitempty"`
	Job     string   `json:"job,omitempty"`
	State   State    `json:"state,omitempty"`
	Spec    *JobSpec `json:"spec,omitempty"`   // queued records
	Digest  string   `json:"digest,omitempty"` // done records
	Error   string   `json:"error,omitempty"`  // failed/interrupted records
}

// ledgerLine is the wire frame: the CRC covers the raw rec bytes exactly
// as they appear on the line, so a torn or bit-flipped record is caught
// without trusting JSON round-trip stability.
type ledgerLine struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// Ledger is an open, appendable job ledger.
type Ledger struct {
	mu   sync.Mutex
	path string
	f    *os.File
	w    *bufio.Writer
}

// OpenLedger opens (creating if absent) the ledger at path and appends
// the header if the file is new.
func OpenLedger(path string) (*Ledger, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Ledger{path: path, f: f, w: bufio.NewWriter(f)}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		if err := l.append(LedgerRecord{Type: LedgerType, Version: LedgerVersion}); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		// A torn final record is tolerated on read, but appending after it
		// with O_APPEND would concatenate the next record onto the partial
		// line, merging both into one garbage line that is no longer the
		// tail — the restart after that one would refuse the ledger as
		// mid-file corruption. Truncate to the last fully-valid record
		// before the first append.
		_, _, validOff, rerr := readLedger(path)
		if rerr != nil {
			f.Close()
			return nil, rerr
		}
		if validOff < st.Size() {
			if terr := f.Truncate(validOff); terr != nil {
				f.Close()
				return nil, terr
			}
			if serr := f.Sync(); serr != nil {
				f.Close()
				return nil, serr
			}
		}
	}
	return l, nil
}

// Append durably records one transition (fsync before returning).
func (l *Ledger) Append(rec LedgerRecord) error {
	if rec.Time == "" {
		rec.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	return l.append(rec)
}

func (l *Ledger) append(rec LedgerRecord) error {
	line, err := encodeLine(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("service: ledger %s is closed", l.path)
	}
	if _, err := l.w.Write(line); err != nil {
		return err
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

// encodeLine renders one newline-terminated ledger line: the record and
// the CRC of its bytes.
func encodeLine(rec LedgerRecord) ([]byte, error) {
	blob, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(ledgerLine{CRC: crc32.ChecksumIEEE(blob), Rec: blob})
	return append(line, '\n'), err
}

// Close flushes and closes the ledger file.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.w.Flush()
	if serr := l.f.Sync(); err == nil {
		err = serr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Seal compacts the ledger in place through durable.WriteFile: terminal
// jobs keep only their final record (plus the spec off their queued record
// so a sealed ledger still replays), interrupted/queued jobs keep their
// full history for recovery. Called on graceful drain; a crash skips it and
// recovery reads the uncompacted file just as well.
func (l *Ledger) Seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		if err := l.w.Flush(); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	recs, _, _, err := readLedger(l.path)
	if err != nil {
		return err
	}
	jobs := replayJobs(recs)
	var keep []LedgerRecord
	var ids []string
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		h := jobs[id]
		last := h[len(h)-1]
		if last.State.Terminal() && last.State != StateInterrupted {
			if last.Spec == nil {
				last.Spec = h[0].Spec
			}
			keep = append(keep, last)
			continue
		}
		keep = append(keep, h...)
	}
	header := LedgerRecord{Type: LedgerType, Version: LedgerVersion, Time: time.Now().UTC().Format(time.RFC3339Nano)}
	werr := durable.WriteFile(l.path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		for _, rec := range append([]LedgerRecord{header}, keep...) {
			line, err := encodeLine(rec)
			if err == nil {
				_, err = bw.Write(line)
			}
			if err != nil {
				return err
			}
		}
		return bw.Flush()
	})
	// Swap the live file handle to whatever the path now names. That is
	// the compacted ledger even when only the final directory fsync
	// failed, and the flushed old ledger when the write failed.
	if l.f != nil {
		l.f.Close()
	}
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		l.f = nil
		return err
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	return werr
}

// readLedger parses the ledger at path. A torn final line (crash mid
// -append) is tolerated and reported in problems; any earlier corruption
// is an error. The returned records exclude the header. validOff is the
// byte offset just past the last fully-written (newline-terminated) valid
// line: OpenLedger truncates the file to this offset before appending, so
// a post-crash append starts a fresh line instead of concatenating onto
// the torn tail.
func readLedger(path string) (recs []LedgerRecord, problems []string, validOff int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	n := 0
	sawHeader := false
	for {
		raw, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return nil, nil, 0, rerr
		}
		if len(raw) == 0 {
			break // clean EOF
		}
		n++
		if rerr == io.EOF {
			// No trailing newline: the append never finished this line, and
			// the fsync behind it never acknowledged — drop it even if the
			// bytes happen to parse.
			problems = append(problems, fmt.Sprintf("line %d: torn final record dropped (no newline)", n))
			break
		}
		line := bytes.TrimSuffix(raw, []byte("\n"))
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) == 0 {
			validOff += int64(len(raw))
			continue
		}
		var frame ledgerLine
		bad := ""
		if jerr := json.Unmarshal(line, &frame); jerr != nil {
			bad = fmt.Sprintf("bad ledger line: %v", jerr)
		} else if crc32.ChecksumIEEE(frame.Rec) != frame.CRC {
			bad = "CRC mismatch"
		}
		if bad != "" {
			// Only a torn tail is forgivable: peek whether more data follows.
			if _, perr := br.Peek(1); perr == nil {
				return nil, nil, 0, fmt.Errorf("%s:%d: %s", path, n, bad)
			}
			problems = append(problems, fmt.Sprintf("line %d: torn final record dropped (%s)", n, bad))
			break
		}
		var rec LedgerRecord
		if jerr := json.Unmarshal(frame.Rec, &rec); jerr != nil {
			return nil, nil, 0, fmt.Errorf("%s:%d: bad ledger record: %v", path, n, jerr)
		}
		validOff += int64(len(raw))
		if n == 1 {
			if rec.Type != LedgerType || rec.Version != LedgerVersion {
				return nil, nil, 0, fmt.Errorf("%s: not a %s v%d ledger (header type %q v%d)",
					path, LedgerType, LedgerVersion, rec.Type, rec.Version)
			}
			sawHeader = true
			continue
		}
		recs = append(recs, rec)
	}
	if n == 0 {
		return nil, nil, 0, io.ErrUnexpectedEOF
	}
	if !sawHeader {
		return nil, nil, 0, fmt.Errorf("%s: missing ledger header", path)
	}
	return recs, problems, validOff, nil
}

// replayJobs groups records by job ID in append order.
func replayJobs(recs []LedgerRecord) map[string][]LedgerRecord {
	jobs := map[string][]LedgerRecord{}
	for _, rec := range recs {
		if rec.Job == "" {
			continue
		}
		jobs[rec.Job] = append(jobs[rec.Job], rec)
	}
	return jobs
}

// RecoveredJob is one job a restarted daemon must requeue: its last
// persisted state was non-terminal (the previous process died with it
// queued or running), so recovery marks it interrupted and resubmits its
// spec.
type RecoveredJob struct {
	ID        string
	Spec      JobSpec
	LastState State
}

// Recover replays the ledger at path and returns the jobs to requeue.
// Missing file means a fresh data dir: no recovery, no error.
func Recover(path string) ([]RecoveredJob, []string, error) {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return nil, nil, nil
	}
	recs, problems, _, err := readLedger(path)
	if err != nil {
		return nil, nil, err
	}
	jobs := replayJobs(recs)
	var ids []string
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []RecoveredJob
	for _, id := range ids {
		h := jobs[id]
		last := h[len(h)-1].State
		if last.Terminal() && last != StateInterrupted {
			continue
		}
		var spec *JobSpec
		for _, rec := range h {
			if rec.Spec != nil {
				spec = rec.Spec
				break
			}
		}
		if spec == nil {
			problems = append(problems, fmt.Sprintf("job %s: non-terminal (%s) but no spec record; cannot recover", id, last))
			continue
		}
		out = append(out, RecoveredJob{ID: id, Spec: *spec, LastState: last})
	}
	return out, problems, nil
}

// ValidateLedger deep-checks a ledger file for tracecheck: frame and CRC
// discipline, known states, monotonic per-job transitions, specs present
// on queued records and valid, digests present on done records. The
// summary line is human-oriented; problems is empty for a healthy file.
func ValidateLedger(path string) (problems []string, summary string, err error) {
	recs, problems, _, err := readLedger(path)
	if err != nil {
		return nil, "", err
	}
	states := map[string]State{}
	var order []string
	terminal := 0
	for i, rec := range recs {
		where := fmt.Sprintf("record %d (job %s)", i+2, rec.Job)
		if rec.Job == "" {
			problems = append(problems, where+": missing job ID")
			continue
		}
		if !rec.State.Known() {
			problems = append(problems, fmt.Sprintf("%s: unknown state %q", where, rec.State))
			continue
		}
		prev, seen := states[rec.Job]
		if !seen {
			order = append(order, rec.Job)
		}
		// A sealed ledger compacts a terminal job to one summary record
		// carrying the spec; that is the only legal way to open a job's
		// history in a terminal state.
		sealed := prev == "" && rec.State.Terminal() && rec.State != StateInterrupted && rec.Spec != nil
		if !sealed && !TransitionOK(prev, rec.State) {
			problems = append(problems, fmt.Sprintf("%s: illegal transition %q -> %q", where, prev, rec.State))
		}
		if prev == "" {
			if rec.Spec == nil {
				problems = append(problems, where+": first record for job missing spec")
			} else if ps := rec.Spec.Problems(); len(ps) > 0 {
				for _, p := range ps {
					problems = append(problems, where+": spec: "+p)
				}
			}
		}
		if rec.State == StateDone && rec.Digest == "" {
			problems = append(problems, where+": done record missing digest")
		}
		if rec.Time != "" {
			if _, terr := time.Parse(time.RFC3339Nano, rec.Time); terr != nil {
				problems = append(problems, fmt.Sprintf("%s: bad timestamp %q", where, rec.Time))
			}
		}
		states[rec.Job] = rec.State
	}
	for _, id := range order {
		if s := states[id]; s.Terminal() {
			terminal++
		}
	}
	summary = fmt.Sprintf("job ledger — %d records, %d jobs (%d terminal), %d problems",
		len(recs), len(order), terminal, len(problems))
	return problems, summary, nil
}
