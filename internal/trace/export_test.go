package trace

// SampleSignature exposes the valid three-rank fixture to the external
// file-format tests.
var SampleSignature = sampleSignature
