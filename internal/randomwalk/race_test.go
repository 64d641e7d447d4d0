//go:build race

package randomwalk

func init() { raceBuild = true }
