//go:build !race

package hierarchy

const raceBuild = false
