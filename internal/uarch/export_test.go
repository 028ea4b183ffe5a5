package uarch

// Hooks for the external lockstep test, which needs core's node scaling
// and so cannot live in this package.

// SetReference switches s to the per-cycle reference loop with the
// scanning complete.
func SetReference(s *Sim) { s.reference = true }

// OnCommit installs an observer of every committed instruction.
func OnCommit(s *Sim, f func(cycle, seq int64)) { s.onCommit = f }
