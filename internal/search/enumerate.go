package search

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"repro/internal/fingerprint"
	"repro/internal/rtl"
)

// Start says how Enumerate set out.
type Start string

const (
	// Fresh: the slot was absent, unusable, or there is none; the
	// enumeration starts from the root.
	Fresh Start = "fresh"
	// Resumed: the slot held a checkpoint of f; the enumeration
	// continues from its frontier.
	Resumed Start = "resumed"
	// Found: the slot already held f's finished space — the window
	// between an engine's final write and its caller publishing it.
	// Nothing runs.
	Found Start = "found"
)

// Enumerate is Run, continuing whatever opts.CheckpointPath holds. It
// is the one owner of a checkpoint slot's states:
//
//	no path                         Run
//	slot absent                     Run
//	checkpoint of f                 Resume
//	finished space of f             returned as is, SpacePath and SpaceHash set
//	finished with timing            warning logged, Run replaces it
//	  (an older build's)
//	unloadable (damaged, truncated) warning logged, Run replaces it
//	aborted, no frontier            warning logged, Run replaces it
//	loadable, another function/tier error; the file is left alone
//
// Whether the slot holds f's enumeration in opts.Equiv's tier is
// Result.Enumerates: f's name and root instance. begin, when non-nil,
// learns which way the enumeration sets out before any of it runs (a
// caller counting enumerations as they start); warnings go to
// opts.Logger. The slot is read once: a finished space is named by the
// SHA-256 of the bytes it was loaded from. One that still carries
// wall-clock fields was written by a build from before a complete space
// at rest was its canonical bytes; its file's hash would not be its
// CanonicalHash, so it is replaced like a damaged one. The error is the
// mismatch above or Resume's.
func Enumerate(f *rtl.Func, opts Options, begin func(Start)) (*Result, error) {
	start, prev := Fresh, (*Result)(nil)
	if path := opts.CheckpointPath; path != "" {
		unusable := ""
		b, err := os.ReadFile(path)
		if err == nil {
			prev, err = Load(bytes.NewReader(b))
		}
		switch {
		case errors.Is(err, fs.ErrNotExist):
		case err != nil:
			unusable = err.Error()
		case !prev.Enumerates(f, opts.Equiv):
			return nil, fmt.Errorf("search: %s holds an enumeration of another function (%q, Equiv=%v), not of %q (Equiv=%v); not overwriting it",
				path, prev.FuncName, prev.Equiv != nil, f.Name, opts.Equiv)
		case prev.Checkpoint != nil:
			start = Resumed
		case !prev.Aborted && (prev.Elapsed != 0 || prev.Stats.StateKeyNS != 0 || prev.Stats.ExpandNS != 0):
			unusable = "finished space with timing, written by an older build"
		case !prev.Aborted:
			sum := sha256.Sum256(b)
			start, prev.SpacePath, prev.SpaceHash = Found, path, hex.EncodeToString(sum[:])
		default:
			unusable = "aborted space with no frontier to resume: " + prev.AbortReason
		}
		if unusable != "" && opts.Logger != nil {
			opts.Logger.WarnContext(opts.logCtx(), "checkpoint slot unusable, enumerating afresh",
				"path", path, "err", unusable)
		}
	}
	if begin != nil {
		begin(start)
	}
	if start != Fresh {
		return Resume(prev, opts) // a finished space comes back as it is
	}
	return Run(f, opts), nil
}

// Enumerates reports whether r is a space of f in the tier equiv
// names. The function is told by its name, which a saved space carries,
// and by r's root instance — node 0's canonical key against the one Run
// gives f's cleaned root (no gating flag set, then the canonical
// encoding): an edited source that kept the name is another function,
// and so is the same body under another name, while a reformatted
// source that compiles to the same code is not. A space of the other
// tier is another enumeration too, either way round.
func (r *Result) Enumerates(f *rtl.Func, equiv bool) bool {
	if len(r.Nodes) == 0 || r.FuncName != f.Name || (r.Equiv != nil) != equiv {
		return false
	}
	root := f.Clone()
	rtl.Cleanup(root)
	return r.NodeKey(r.Root()) == "\x00"+string(fingerprint.Encode(root))
}
