package stm

import "repro/internal/memory"

// ArenaOf exposes r's heap to the external tests.
func ArenaOf(r *Runtime) *memory.Arena { return r.arena }
