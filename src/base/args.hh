/**
 * @file
 * A small command-line argument parser for the tools and examples.
 *
 * Supports --flag, --key value and --key=value forms, range-checked
 * numeric accessors, defaults, and a generated usage string.  Unknown
 * options and malformed numbers are errors; positional arguments are
 * collected in order.
 */

#ifndef MDP_BASE_ARGS_HH
#define MDP_BASE_ARGS_HH

#include <map>
#include <string>
#include <vector>

namespace mdp
{

/**
 * Declarative option table + parsed values.
 */
class ArgParser
{
  public:
    /** @param program Name shown in the usage string. */
    explicit ArgParser(std::string program_name);

    /** Declare a boolean flag (present/absent). */
    void addFlag(const std::string &name, const std::string &help);

    /** Declare a valued option with a default (shown in usage). */
    void addOption(const std::string &name, const std::string &def,
                   const std::string &help);

    /** Declare a named positional argument (for usage only). */
    void addPositional(const std::string &name,
                       const std::string &help);

    /**
     * Parse argv.
     * @return true on success; on failure, error() describes why.
     */
    bool parse(int argc, const char *const *argv);

    bool flag(const std::string &name) const;
    std::string get(const std::string &name) const;

    /**
     * Read @p name as an integer in [lo, hi].  The value must be the
     * whole token.  On failure, returns false and error() says why.
     */
    bool getLong(const std::string &name, long lo, long hi, long &out);

    /**
     * Read @p name as a finite number in (lo, hi].  The value must be
     * the whole token.  On failure, returns false and error() says
     * why.
     */
    bool getDouble(const std::string &name, double lo, double hi,
                   double &out);

    const std::vector<std::string> &positionals() const
    {
        return positional;
    }

    const std::string &error() const { return errorMsg; }

    /** Render the option table. */
    std::string usage() const;

  private:
    struct Option
    {
        std::string def;
        std::string help;
        bool isFlag = false;
    };

    std::string program;
    /** Declaration order for usage rendering. */
    std::vector<std::string> order;
    std::map<std::string, Option> options;
    std::vector<std::pair<std::string, std::string>> positionalDecls;

    std::map<std::string, std::string> values;
    std::vector<std::string> positional;
    std::string errorMsg;
};

} // namespace mdp

#endif // MDP_BASE_ARGS_HH
