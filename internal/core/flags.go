package core

import (
	"flag"
	"strconv"
)

// BindFlags registers the guided-engine flags the statsym and benchtab
// binaries share — -parallel, -workers, -shared-cache, -scope and
// -summaries — on fs. Parsing fs writes them into cfg.
func BindFlags(fs *flag.FlagSet, cfg *Config) {
	fs.IntVar(&cfg.Parallel, "parallel", 1, "verify candidate paths with this many concurrent local slots (1: the paper's sequential loop)")
	fs.IntVar(&cfg.Workers, "workers", 0, "in-candidate frontier workers (0: one state per quantum, the paper's loop; >=1: epochs of several states stepped on that many goroutines, results independent of the count)")
	fs.Var(sharedCacheFlag{&cfg.DisableSharedCache}, "shared-cache", "share solver verdicts across candidate verifications (wall-clock only; counters are unaffected)")
	fs.StringVar(&cfg.Scope, "scope", "", "interpretation scope policy: \"\" or \"all\" interprets everything; \"all,-f,-g\" havocs f and g; \"f,g\" interprets exactly that list plus main")
	fs.BoolVar(&cfg.Summaries, "summaries", false, "replace summarizable in-scope calls by memoized path summaries shared across candidate attempts (detection-equivalent under a full-coverage scope)")
}

// sharedCacheFlag is the boolean -shared-cache flag stored inverted, as
// Config.DisableSharedCache.
type sharedCacheFlag struct{ disable *bool }

func (f sharedCacheFlag) IsBoolFlag() bool { return true }

// String also runs on the zero value, when the flag package decides
// whether to print a default.
func (f sharedCacheFlag) String() string {
	return strconv.FormatBool(f.disable != nil && !*f.disable)
}

func (f sharedCacheFlag) Set(s string) error {
	on, err := strconv.ParseBool(s)
	if err != nil {
		return err
	}
	*f.disable = !on
	return nil
}
