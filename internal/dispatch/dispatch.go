// Package dispatch is the socket transport of distributed candidate
// verification: a coordinator ships work units (serialized candidate
// attempts, see internal/core and internal/symexec/snapshot) to worker
// processes and reads back results. The protocol is deliberately small —
// CRC-framed messages over a unix-domain or TCP stream, a magic/version
// handshake, one outstanding unit per connection — because all sequencing
// intelligence (work-stealing, re-dispatch, merge order) lives in the
// coordinator, not the wire.
//
// Failure model: any transport error — torn frame, checksum mismatch,
// deadline expiry, connection reset — marks the client dead; the
// coordinator re-runs the unit locally. Workers therefore only ever cost
// speed, never detections.
package dispatch

import (
	"fmt"
	"net"
	"strings"
	"time"
)

// Magic identifies the protocol and its version. The Hello payload must
// match exactly; mismatches (old binary, wrong port) fail the handshake
// with a descriptive error instead of undefined framing behavior. Bump it
// whenever a unit kind or a unit codec changes.
const Magic = "statsym-dispatch/5"

// DefaultUnitDeadline bounds one unit's round trip when the caller does
// not choose a deadline. Generous: a unit is a whole candidate attempt,
// whose own solver/step budgets normally finish far sooner.
const DefaultUnitDeadline = 10 * time.Minute

// SplitAddr normalizes a worker address into (network, address) for
// net.Dial/net.Listen: "unix:<path>" or any address containing a path
// separator is a unix-domain socket, everything else is TCP.
func SplitAddr(addr string) (network, address string) {
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", rest
	}
	if rest, ok := strings.CutPrefix(addr, "tcp:"); ok {
		return "tcp", rest
	}
	if strings.ContainsAny(addr, "/\\") {
		return "unix", addr
	}
	return "tcp", addr
}

// ParseAddrs splits a comma-separated worker address list (each entry in
// SplitAddr syntax), dropping blanks.
func ParseAddrs(list string) []string {
	var addrs []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// Listen opens a listener on addr (see SplitAddr for the syntax).
func Listen(addr string) (net.Listener, error) {
	network, address := SplitAddr(addr)
	l, err := net.Listen(network, address)
	if err != nil {
		return nil, fmt.Errorf("dispatch: listen %s %s: %w", network, address, err)
	}
	return l, nil
}
