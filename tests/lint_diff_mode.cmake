# Behavioral check for `cograd lint --diff OLD.json`: the diff gate fails
# only on findings that are NOT in the reference manifest. Six legs:
#
#   1. the r8_thread fixture without --diff exits nonzero (sanity),
#   2. the same tree diffed against its own manifest exits 0 — every
#      finding is carried over, none is new,
#   3. a different fixture tree diffed against that manifest exits
#      nonzero — its findings are absent from the reference,
#   4. --diff without --json writes no manifest: with the reference named
#      LINT.json, two runs of leg 3 both fail and leave its bytes as they
#      were. This leg works in a directory of its own, since cograd.lint
#      writes LINT.json into the shared test directory.
#   5. the tree diffed against its own manifest with every line number
#      shifted by one exits nonzero and names the regenerating command:
#      the reference matches every finding, but at the wrong line.
#   6. a reference that lists `int a = std::rand();` once, at line 2,
#      against a tree that holds that line at lines 1 and 2, exits nonzero
#      on line 1 alone: line 2 pairs with its own entry and is carried
#      over, line 1 is new, and nothing is stale.
#
# Invoked by ctest as:
#   cmake -DCOGRAD=<cograd> -DFIXTURES=<tests/lint_fixtures> -P lint_diff_mode.cmake
execute_process(
  COMMAND ${COGRAD} lint --tree ${FIXTURES}/r8_thread --json diff_base.json
  RESULT_VARIABLE base
  OUTPUT_QUIET)
if(base EQUAL 0)
  message(FATAL_ERROR "r8_thread fixture unexpectedly linted clean")
endif()
execute_process(
  COMMAND ${COGRAD} lint --tree ${FIXTURES}/r8_thread --diff diff_base.json
          --json diff_same.json
  RESULT_VARIABLE same
  OUTPUT_QUIET)
if(NOT same EQUAL 0)
  message(FATAL_ERROR
          "--diff against the tree's own manifest must pass (got ${same})")
endif()
execute_process(
  COMMAND ${COGRAD} lint --tree ${FIXTURES}/r10_rng --diff diff_base.json
          --json diff_new.json
  RESULT_VARIABLE fresh
  OUTPUT_QUIET)
if(fresh EQUAL 0)
  message(FATAL_ERROR "--diff must fail on findings absent from the reference")
endif()
set(own ${CMAKE_CURRENT_BINARY_DIR}/lint_diff_mode)
file(REMOVE_RECURSE ${own})
file(MAKE_DIRECTORY ${own})
configure_file(diff_base.json ${own}/LINT.json COPYONLY)
file(READ ${own}/LINT.json reference)
foreach(run 1 2)
  execute_process(
    COMMAND ${COGRAD} lint --tree ${FIXTURES}/r10_rng --diff LINT.json
    WORKING_DIRECTORY ${own}
    RESULT_VARIABLE rerun
    OUTPUT_QUIET)
  if(rerun EQUAL 0)
    message(FATAL_ERROR "--diff run ${run} must fail on findings absent from LINT.json")
  endif()
  file(READ ${own}/LINT.json after)
  if(NOT after STREQUAL reference)
    message(FATAL_ERROR "--diff without --json rewrote its reference LINT.json")
  endif()
endforeach()
file(READ diff_base.json base_text)
string(REGEX REPLACE "\"line\": ([0-9]+)" "\"line\": 1\\1" shifted_text
       "${base_text}")
if(shifted_text STREQUAL base_text)
  message(FATAL_ERROR "the shifted reference shifted no line")
endif()
file(WRITE diff_shifted.json "${shifted_text}")
execute_process(
  COMMAND ${COGRAD} lint --tree ${FIXTURES}/r8_thread --diff diff_shifted.json
  RESULT_VARIABLE shifted
  OUTPUT_VARIABLE shifted_out)
if(shifted EQUAL 0)
  message(FATAL_ERROR "--diff must fail on a reference whose lines drifted")
endif()
string(FIND "${shifted_out}" "regenerate it with `cograd lint" regenerate_at)
if(regenerate_at EQUAL -1)
  message(FATAL_ERROR
          "--diff on a stale reference must name the regenerating command:\n"
          "${shifted_out}")
endif()

set(pair ${CMAKE_CURRENT_BINARY_DIR}/lint_diff_pair)
file(REMOVE_RECURSE ${pair})
file(WRITE ${pair}/src/x.cpp "int pad = 0;\nint a = std::rand();\n")
execute_process(
  COMMAND ${COGRAD} lint --tree ${pair} --json ${pair}/reference.json
  RESULT_VARIABLE pair_base
  OUTPUT_QUIET)
if(pair_base EQUAL 0)
  message(FATAL_ERROR "the std::rand() site unexpectedly linted clean")
endif()
file(WRITE ${pair}/src/x.cpp
     "int a = std::rand();\nint a = std::rand();\n")
execute_process(
  COMMAND ${COGRAD} lint --tree ${pair} --diff ${pair}/reference.json
  RESULT_VARIABLE paired
  OUTPUT_VARIABLE paired_out)
string(FIND "${paired_out}" "src/x.cpp:1: [R1/" added_at)
string(FIND "${paired_out}" "src/x.cpp:2:" listed_at)
string(FIND "${paired_out}" "1 new vs" one_new_at)
string(FIND "${paired_out}" "(1 carried over" carried_at)
string(FIND "${paired_out}" "is stale" stale_at)
if(paired EQUAL 0 OR added_at EQUAL -1 OR NOT listed_at EQUAL -1 OR
   one_new_at EQUAL -1 OR carried_at EQUAL -1 OR NOT stale_at EQUAL -1)
  message(FATAL_ERROR
          "--diff must report the added site at line 1 as new and carry "
          "the listed one at line 2 over, with nothing stale (got "
          "${paired}):\n${paired_out}")
endif()
