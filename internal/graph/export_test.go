package graph

// CheckContract lets the external tests in this directory, which can import
// the workload generators and the §3.1 clustering, hold Contract against the
// reference oracle.
var CheckContract = checkContract
