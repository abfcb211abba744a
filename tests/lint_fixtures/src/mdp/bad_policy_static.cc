// Fixture: a DependencePolicy with hidden shared state.  A mutable
// static (class-scope or function-local) is shared by every instance,
// so concurrent runs on the server's pool threads silently couple.
// `static const` is the blessed idiom and stays unflagged.
#include "mdp/dep_policy.hh"

#include <string>

namespace mdp
{

class StickyPolicy final : public DependencePolicy
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "sticky"; // const: allowed
        return n;
    }

    int
    bump()
    {
        static int calls = 0; // expect: policy-static-state
        return ++calls;
    }

  private:
    static int hits_; // expect: policy-static-state
};

} // namespace mdp
