package search

import (
	"errors"
	"fmt"
	"io/fs"

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
//	no path, or opts.Equiv          Run (equiv runs never checkpoint)
//	slot absent                     Run
//	checkpoint of f                 Resume
//	finished space of f             returned as is, SpacePath set
//	unloadable (damaged, truncated) warning logged, Run replaces it
//	aborted, no frontier            warning logged, Run replaces it
//	loadable, another function      error; the file is left alone
//
// The slot's function is told by its root instance — node 0's canonical
// key against f's cleaned root — not by its name: an edited source that
// kept the name is another function, a reformatted one that compiles to
// the same code is not. Only the default tier is ever resumed or found;
// an equivalence-collapsed document in the slot is another function
// too. begin, when non-nil, learns which way the enumeration sets out
// before any of it runs (a caller counting enumerations as they start);
// warnings go to opts.Logger. The error is the mismatch above or
// Resume's.
func Enumerate(f *rtl.Func, opts Options, begin func(Start)) (*Result, error) {
	start, prev := Fresh, (*Result)(nil)
	if path := opts.CheckpointPath; path != "" && !opts.Equiv {
		var err error
		unusable := ""
		switch prev, err = LoadFile(path); {
		case errors.Is(err, fs.ErrNotExist):
		case err != nil:
			unusable = err.Error()
		case prev.Equiv != nil || prev.NodeKey(prev.Root()) != rootKey(f):
			return nil, fmt.Errorf("search: %s holds an enumeration of another function (%q), not of %q; not overwriting it",
				path, prev.FuncName, f.Name)
		case prev.Checkpoint != nil:
			start = Resumed
		case !prev.Aborted:
			start, prev.SpacePath = Found, path
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

// rootKey is the canonical key Run gives node 0 of f's space: no gating
// flag set, then the canonical encoding of the cleaned-up function.
func rootKey(f *rtl.Func) string {
	root := f.Clone()
	rtl.Cleanup(root)
	return "\x00" + string(fingerprint.Encode(root))
}
