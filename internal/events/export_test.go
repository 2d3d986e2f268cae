package events

// Histograms exposes the timeline's fold proper to the external tests,
// which hold it to the cycles and instructions of the run it folded.
var Histograms = histograms
