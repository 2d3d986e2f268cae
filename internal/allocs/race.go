//go:build race

package allocs

const raceBuild = true
