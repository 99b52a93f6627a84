package analyzers

import "testing"

func TestNoAlloc(t *testing.T) {
	runAnalyzerTest(t, NoAlloc, "noalloc")
}

// TestNoAllocAssemblyTwins runs noalloc over a package of body-less
// kernels, three of them (and one that is gone) listed in
// AssemblyTwins for the duration of the test.
func TestNoAllocAssemblyTwins(t *testing.T) {
	for kernel, twin := range map[string]string{
		"kernelOK": "kernelOKTwin", "kernelBadTwin": "badTwin", "kernelNoTwin": "missingTwin", "gone": "goneTwin",
	} {
		key := "ihtlvet.test/asmtwins." + kernel
		AssemblyTwins[key] = twin
		defer delete(AssemblyTwins, key)
	}
	runAnalyzerTest(t, NoAlloc, "asmtwins")
}
