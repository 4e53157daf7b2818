# Checks every object holding x86 ISA code against its compile style
# (DESIGN.md §6.1).
#
#   cmake -DNM=<nm> -DOBJDUMP=<objdump> -DSRC=<src dir>
#         -DOBJECTS=<obj>|<obj>... -DSOURCES=<entry>|<entry>...
#         [-DCHECK_ATTRIBUTED=ON] -P isa_objects.cmake
#
# SOURCES is the build's ISA source list (src/CMakeLists.txt), OBJECTS
# every object of the libraries holding them; each source must have an
# object among them.
#
# A TU compiled whole with -m flags ("<source> <flags>") must define no
# weak or unique symbol.  Such a symbol is an inline function or template
# the object shares with baseline TUs, so the linker keeps one copy for
# every caller and may keep this object's: a host without the ISA would
# then run its instructions outside any dispatch.
#
# A baseline TU with [[gnu::target]] functions ("<source>") may hold VEX,
# EVEX, BMI2, LZCNT or PCLMULQDQ instructions only in functions its
# dispatch table names ({"<name>", <features>, <function>} rows), and
# lambdas local to them; anywhere else they would run without a row's
# feature check.  Only CHECK_ATTRIBUTED builds check this half: it needs
# the inlining of an -O3 build, which folds each row's attributed helpers
# into the row's function, and a baseline no wider than x86-64 (under
# -march=native every function may use the wider ISA).
cmake_policy(VERSION 3.20)
string(REPLACE "|" ";" objects "${OBJECTS}")
string(REPLACE "|" ";" entries "${SOURCES}")
set(isa "^(v[a-z0-9]+|shlx|shrx|sarx|rorx|bzhi|pdep|pext|mulx|lzcnt|pclmul[a-z]*)$")
foreach(entry IN LISTS entries)
  separate_arguments(flags UNIX_COMMAND "${entry}")
  list(POP_FRONT flags source)
  get_filename_component(name "${source}" NAME)
  set(found "")
  foreach(obj IN LISTS objects)
    get_filename_component(file "${obj}" NAME)
    if(file MATCHES "^${name}\\.")
      set(found "${obj}")
    endif()
  endforeach()
  if(NOT found)
    message(SEND_ERROR "no object for ${source} among: ${OBJECTS}")
    continue()
  endif()

  if(flags)
    execute_process(COMMAND "${NM}" -C "${found}"
      OUTPUT_VARIABLE symbols RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(SEND_ERROR "${NM} failed on ${found}")
      continue()
    endif()
    string(REPLACE "\n" ";" lines "${symbols}")
    set(shared OFF)
    foreach(line IN LISTS lines)
      # Defined weak (W, V) or unique global (u) symbols.
      if(line MATCHES "^[0-9a-fA-F]+ [WVu] (.*)$")
        set(symbol "${CMAKE_MATCH_1}")
        if(NOT symbol STREQUAL "DW.ref.__gxx_personality_v0")
          message(SEND_ERROR "${source}: shared symbol built with its ISA: ${symbol}")
          set(shared ON)
        endif()
      endif()
    endforeach()
    if(NOT shared)
      message(STATUS "${entry}: no shared symbol in ${found}")
    endif()
    continue()
  endif()

  if(NOT CHECK_ATTRIBUTED)
    message(STATUS "${source}: not checked in this build type or baseline")
    continue()
  endif()
  file(READ "${SRC}/${source}" text)
  string(REGEX MATCHALL "{\"[a-z0-9_]+\", [^{}]*, [A-Za-z_][A-Za-z0-9_]*}"
         rows "${text}")
  set(named "")
  foreach(row IN LISTS rows)
    string(REGEX MATCH ", ([A-Za-z_][A-Za-z0-9_]*)}$" _ "${row}")
    list(APPEND named "${CMAKE_MATCH_1}")
  endforeach()
  if(NOT named)
    message(SEND_ERROR "${source}: no dispatch table rows found")
    continue()
  endif()
  execute_process(COMMAND "${OBJDUMP}" -d -C --no-show-raw-insn "${found}"
    OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${OBJDUMP} failed on ${found}")
    continue()
  endif()
  # Brackets and semicolons would split or join CMake list items.
  string(REGEX REPLACE "[][;]" "_" listing "${listing}")
  string(REPLACE "\n" ";" lines "${listing}")
  set(function "")
  set(allowed OFF)
  set(isa_functions "")
  set(leaked OFF)
  foreach(line IN LISTS lines)
    if(line MATCHES "^[0-9a-f]+ <(.*)>:$")
      set(function "${CMAKE_MATCH_1}")
      set(allowed OFF)
      foreach(fn IN LISTS named)
        string(FIND "${function}" "::${fn}(" at)
        if(NOT at EQUAL -1)
          set(allowed ON)
        endif()
      endforeach()
    elseif(line MATCHES "^ +[0-9a-f]+:\t([a-z0-9]+)")
      if(CMAKE_MATCH_1 MATCHES "${isa}")
        if(NOT allowed)
          message(SEND_ERROR "${source}: ${CMAKE_MATCH_1} outside a table row, in ${function}")
          set(allowed ON)  # one report per function
          set(leaked ON)
        elseif(NOT function IN_LIST isa_functions)
          list(APPEND isa_functions "${function}")
        endif()
      endif()
    endif()
  endforeach()
  list(LENGTH isa_functions n)
  if(n EQUAL 0)
    message(SEND_ERROR "${source}: no ISA code in any of its rows (${named})")
  elseif(NOT leaked)
    message(STATUS "${source}: ISA code in ${n} function(s) of rows ${named}")
  endif()
endforeach()
