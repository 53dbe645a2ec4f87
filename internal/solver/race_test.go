//go:build race

package solver

// raceBuild: a -race build, whose sync.Pool drops a share of what is put
// back, so heap-object counts of pooled paths are not comparable there, and
// whose kernels run many times slower.
const raceBuild = true
