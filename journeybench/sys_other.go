//go:build !linux

package main

// The per-process resource readings are Linux interfaces; elsewhere
// they read as unavailable.

func peakRSSMB() float64 { return 0 }

func writtenBytes() int64 { return 0 }

func fsType(string) string { return "unknown" }
