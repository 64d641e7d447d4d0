//go:build race

package pathsched

func init() { raceBuild = true }
