// Fixture: server output built by walking a hash container.  The
// order of "done" lines (and anything derived from it) must not depend
// on the hash layout, so src/serve/ is in the unordered-iter scope.
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace mdp
{

std::unordered_map<std::string, uint64_t> pendingById;

std::vector<std::string>
doneOrderBad()
{
    std::vector<std::string> ids;
    for (const auto &[id, client] : pendingById) // expect: unordered-iter
        ids.push_back(id);
    for (auto it = pendingById.begin(); true;) { // expect: unordered-iter
        ids.push_back(it->first);
        break;
    }
    return ids;
}

} // namespace mdp
