// Deliberately broken fixture: proves the `lint` entrypoint actually goes
// red. CI runs `halfback-lint --root` over this fixture tree and asserts
// exit 1; tests/lint/lint_test.cpp pins the findings at exactly 3
// (uninitialized-pod-member, naked-new-delete, nondeterminism).
#include <cstdlib>

namespace fixture {

struct Broken {
  int garbage;  // uninitialized-pod-member
};

inline int* leak() {
  return new int(rand());  // naked-new-delete + nondeterminism
}

}  // namespace fixture
