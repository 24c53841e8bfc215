package server

// CloseWriteGrace lets the external tests bound Close against the
// grace it actually uses.
const CloseWriteGrace = closeWriteGrace
