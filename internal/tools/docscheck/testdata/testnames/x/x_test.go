package x

import "testing"

func TestKept(t *testing.T) {}

func BenchmarkKept(b *testing.B) {}
