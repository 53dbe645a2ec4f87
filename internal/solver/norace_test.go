//go:build !race

package solver

const raceBuild = false
