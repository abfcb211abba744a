// Expected-clean counterpart of bad_unordered_serve.cc: output order
// comes from the submission-order vector (or an ordered map), and the
// hash container only serves point lookups.
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace mdp
{

std::vector<std::string> submitted;
std::unordered_map<std::string, uint64_t> clientById;
std::map<std::string, bool> idState;

std::vector<uint64_t>
doneOrderClean()
{
    std::vector<uint64_t> clients;
    for (const std::string &id : submitted) {
        auto it = clientById.find(id);
        clients.push_back(it == clientById.end() ? 0 : it->second);
    }
    for (const auto &[id, done] : idState)
        clients.push_back(done ? 1 : 0);
    return clients;
}

} // namespace mdp
