package core

// CheckCompiled lets template_ext_test.go hold the compile step against its
// oracle for templates whose packages import this one.
var CheckCompiled = checkCompiled
