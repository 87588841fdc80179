package pathid

import (
	"repro/internal/stats"
	"repro/internal/trace"
)

// IndexScores exposes the skeleton search's score index to the external
// tests.
func IndexScores(analysis *stats.Analysis) map[trace.Location]float64 {
	return indexScores(analysis)
}
