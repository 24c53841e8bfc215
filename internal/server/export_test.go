package server

// CloseWriteGrace lets the external tests bound Close against the
// grace it actually uses.
const CloseWriteGrace = closeWriteGrace

// HeldReplies counts the replies the server's connections are holding
// back for the durable watermark right now.
func (s *Server) HeldReplies() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for c := range s.conns {
		c.hmu.Lock()
		n += len(c.held)
		c.hmu.Unlock()
	}
	return n
}

// HeldPeak is the most replies any live connection has held at once.
func (s *Server) HeldPeak() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for c := range s.conns {
		c.hmu.Lock()
		n = max(n, c.hpeak)
		c.hmu.Unlock()
	}
	return n
}

// MaxHeld is the per-connection bound on held replies.
const MaxHeld = maxHeld
