//go:build race

package mst

func init() { raceBuild = true }
