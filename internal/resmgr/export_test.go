package resmgr

// DebugBuild exposes debugBuild to the external test package.
const DebugBuild = debugBuild
