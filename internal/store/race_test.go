//go:build race

package store

// raceEnabled reports that the race detector is compiled in; its
// instrumentation changes what escapes, so allocation counts are not the
// program's.
const raceEnabled = true
