# Writes OUT, a header defining SPACEFTS_GIT_SHA: the short commit hash of
# the checkout at SRC, "-dirty" when the tree has uncommitted changes, or
# "unknown" outside git.  It runs at every build and rewrites OUT only when
# the value changed, so a reused build directory stamps the commit it
# builds and rebuilds nothing when that is unchanged.
#
#   cmake -DSRC=<checkout> -DOUT=<header> -P git_sha.cmake
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY "${SRC}"
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT sha)
  set(sha "unknown")
else()
  execute_process(
    COMMAND git diff --quiet HEAD
    WORKING_DIRECTORY "${SRC}"
    RESULT_VARIABLE dirty
    ERROR_QUIET)
  if(dirty EQUAL 1)
    string(APPEND sha "-dirty")
  endif()
endif()
set(text "#define SPACEFTS_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL text)
  file(WRITE "${OUT}" "${text}")
endif()
