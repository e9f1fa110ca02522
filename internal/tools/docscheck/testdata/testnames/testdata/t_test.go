package t

import "testing"

func TestInTestdata(t *testing.T) {}
