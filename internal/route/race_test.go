//go:build race

package route

func init() { raceBuild = true }
