package x

var testNames = []string{"zht.x.testonly"}
