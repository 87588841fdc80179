package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steady runs one workload o.steady times, each in a fresh process with
// its own seed, and prints each metric's median, quartiles and relative
// spread (interquartile distance over the median) — the evidence for the
// benchmark's steadiness and for its bounds.
func steady(w *Workload, o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var order []string
	code := 0
	for i := 0; i < o.steady; i++ {
		seed := o.seed + int64(i)
		args := []string{"--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(o.trace)}
		var out bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		line, perr := lastResult(out.Bytes())
		if runErr != nil || perr != nil {
			fmt.Fprintf(stdout, "seed %d: failed (%v %v)\n%s", seed, runErr, perr, out.String())
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "seed %d: correct=%v attempted=%d failed=%d", seed, line.Correct, line.Attempted, line.Failed)
		for _, name := range sortedKeys(line.Metrics) {
			fmt.Fprintf(stdout, " %s=%.4g", name, line.Metrics[name].Value)
		}
		fmt.Fprintln(stdout)
		for _, name := range sortedKeys(line.Metrics) {
			if _, ok := units[name]; !ok {
				order = append(order, name)
				units[name] = line.Metrics[name].Unit
			}
			values[name] = append(values[name], line.Metrics[name].Value)
		}
	}
	fmt.Fprintf(stdout, "%-34s %-6s %12s %12s %12s %8s %12s %12s\n",
		"metric", "unit", "median", "q1", "q3", "spread", "min", "max")
	for _, name := range order {
		vs := values[name]
		q1, q2, q3, err := quartiles(vs)
		if err != nil {
			fmt.Fprintf(stdout, "%-34s %v\n", name, err)
			continue
		}
		s := sorted(vs)
		fmt.Fprintf(stdout, "%-34s %-6s %12.6g %12.6g %12.6g %8.4f %12.6g %12.6g\n",
			name, units[name], q2, q1, q3, ratio(q3-q1, q2), s[0], s[len(s)-1])
	}
	return code
}

// lastResult parses the result object on the last non-empty line.
func lastResult(out []byte) (resultLine, error) {
	var line resultLine
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, fmt.Errorf("last line is not a result: %v", err)
	}
	return line, nil
}
