package m

import "testing"

func TestInNestedModule(t *testing.T) {}
